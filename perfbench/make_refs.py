"""Regenerate ``refs.json``: the reference outputs the benchmark checks.

For each seed it records the sha256 of the default full report
(``run_suite(SuiteRequest(seed=S))``, keyed by the request's content
address), the per-cell fingerprints of the ``replay`` workload,
and once the report's layout digest (section headings and line
count), which every seed shares.  Run from
the repository root when the program's outputs change on purpose::

    python3 perfbench/make_refs.py --seeds 0 1 2 3 4 5 6 7 8 9 1009
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seeds computed at once (the benchmark's limit of two worker processes).
WORKERS = 2


def _paths() -> None:
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def references_for(seed: int) -> dict:
    """Report digest, layout and replay fingerprints for one seed."""
    _paths()
    from repro.experiments.api import SuiteRequest, run_suite
    from workloads import (ReplayWorkload, fingerprint, report_layout,
                           sha256_text)

    request = SuiteRequest(seed=seed)
    text = run_suite(request).report_text
    replay = ReplayWorkload(root=ROOT, scratch=ROOT, seed=seed, tiny=False,
                            refs={})
    replay.setup()
    cells = {key: fingerprint(replay._simulate(traces, placement, config))
             for key, traces, placement, config in replay.cells}
    return {"seed": seed, "digest": request.digest,
            "sha256": sha256_text(text), "layout": report_layout(text),
            "replay_key": f"{replay.params()['scale']}/{seed}",
            "cells": cells}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=HERE / "refs.json")
    args = parser.parse_args(argv)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        found = list(pool.map(references_for, args.seeds))
    layouts = {entry["layout"] for entry in found}
    if len(layouts) != 1:
        print("make_refs: report layout differs between seeds; "
              "no layout reference recorded", file=sys.stderr)
    refs = {
        "report": {e["digest"]: e["sha256"] for e in found},
        "report_layout": layouts.pop() if len(layouts) == 1 else None,
        "replay": {e["replay_key"]: e["cells"] for e in found},
    }
    args.out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"make_refs: wrote {args.out} for seeds {args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
