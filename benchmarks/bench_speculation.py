"""Benchmark: incremental + speculative replay on the full cell grid.

Runs the entire report plan (every section's cells) through the engine
twice — once with the incremental + speculative machinery off (the
from-scratch baseline behavior: no identical-placement clones, no
incremental placement-search state), then with it on — and reports the
wall-clock speedup, the clone hits (journaled ``speculated`` events) in
total and per cell, and a full bit-identity sweep over every cell's
results.  A
second measurement covers the persistent analysis cache alone: a cold
fast-engine sweep committing analysis entries, then the same sweep in a
fresh suite (fresh trace objects, as a new process would hold), counting
on-disk analysis hits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_speculation.py -s``,
or as a script emitting the uniform repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_speculation.py --json spec.json
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.exec import ExecutionEngine, plan_sections
from repro.oracle import diff_results

#: The grid the acceptance criteria pin: the full report plan at the
#: reproduction's default evaluation scale.
GRID_SCALE = 0.001


def run_grid(*, speculate: bool, engine: str = "classic", sections=None):
    """One full-grid engine run; returns (specs, report, wall_s, clones)."""
    specs = plan_sections(sections, scale=GRID_SCALE, seed=0, engine=engine)
    runner = ExecutionEngine(workers=1, speculate=speculate)
    start = time.perf_counter()
    report = runner.run(specs)
    wall = time.perf_counter() - start
    assert report.ok, report.failures[:3]
    clones = sum(1 for event in report.events
                 if event["event"] == "speculated"
                 and event["mode"] == "clone")
    return specs, report, wall, clones


def measure_speculation(sections=None):
    """Baseline vs speculative full grid, with a bit-identity sweep."""
    specs, base_report, base_wall, base_clones = run_grid(
        speculate=False, sections=sections)
    assert base_clones == 0
    _, spec_report, spec_wall, clones = run_grid(
        speculate=True, sections=sections)
    mismatches = 0
    for spec in specs:
        diffs = diff_results(
            spec_report.results[spec.job_id], base_report.results[spec.job_id],
            actual_name="speculative", expected_name="baseline")
        if diffs:
            mismatches += 1
    assert mismatches == 0, f"{mismatches} cells diverged under speculation"
    return {
        "cells": len(specs),
        "baseline_wall_s": round(base_wall, 3),
        "speculative_wall_s": round(spec_wall, 3),
        "speedup": round(base_wall / spec_wall, 3) if spec_wall else 0.0,
        "speculated_clone": clones,
        "clone_hits_per_cell": round(clones / len(specs), 3),
        "bit_identical_cells": len(specs) - mismatches,
    }


def measure_analysis_cache():
    """Cold vs warmed persistent analysis cache on the fast engine.

    No result store is involved: every cell simulates for real, so the
    run-compression pass actually executes and the analysis cache is the
    only persistent layer in play.
    """
    from repro.experiments.runner import ExperimentSuite
    from repro.trace import analysis_cache

    algos = ("LOAD-BAL", "SHARE-REFS", "MIN-SHARE", "RANDOM")

    def sweep():
        # A fresh suite per sweep: fresh trace objects carry no in-memory
        # compression memos, exactly like a new worker process.
        suite = ExperimentSuite(scale=GRID_SCALE, seed=0, engine="fast")
        for algo in algos:
            for processors in (2, 4, 8):
                suite.run("Water", algo, processors)

    with tempfile.TemporaryDirectory() as tmp:
        try:
            cold_cache = analysis_cache.configure(tmp)
            with Stopwatch() as cold:
                sweep()
            cold_stats = (cold_cache.hits, cold_cache.misses)
            # A "new process": drop the global (configure() is idempotent
            # per directory) and reopen it with fresh counters.
            analysis_cache.configure(None)
            warm_cache = analysis_cache.configure(tmp)
            with Stopwatch() as warm:
                sweep()
            warm_stats = (warm_cache.hits, warm_cache.misses)
        finally:
            analysis_cache.configure(None)
    return {
        "cold_wall_s": round(cold.wall_s, 3),
        "warm_wall_s": round(warm.wall_s, 3),
        "cold_disk_hits": cold_stats[0],
        "cold_disk_misses": cold_stats[1],
        "warm_disk_hits": warm_stats[0],
        "warm_disk_misses": warm_stats[1],
    }


def render(spec_metrics, cache_metrics) -> str:
    lines = [
        f"Incremental + speculative replay on the full grid "
        f"({spec_metrics['cells']} cells, scale {GRID_SCALE:g}):",
        f"  from-scratch baseline     : {spec_metrics['baseline_wall_s']:8.2f} s",
        f"  incremental + speculative : {spec_metrics['speculative_wall_s']:8.2f} s"
        f"   ({spec_metrics['speedup']:.2f}x)",
        f"  clone hits: {spec_metrics['speculated_clone']}"
        f" ({spec_metrics['clone_hits_per_cell']:.0%} of cells)",
        f"  bit-identical cells       : {spec_metrics['bit_identical_cells']}"
        f"/{spec_metrics['cells']}",
        "Persistent analysis cache (fast engine, 12-cell sweep):",
        f"  cold run : {cache_metrics['cold_wall_s']:6.2f} s "
        f"(disk misses {cache_metrics['cold_disk_misses']})",
        f"  warm run : {cache_metrics['warm_wall_s']:6.2f} s "
        f"(disk hits {cache_metrics['warm_disk_hits']},"
        f" misses {cache_metrics['warm_disk_misses']})",
    ]
    return "\n".join(lines)


def test_speculation_speedup(capsys):
    """Pytest entry point: the acceptance-criteria assertions."""
    spec_metrics = measure_speculation()
    cache_metrics = measure_analysis_cache()
    with capsys.disabled():
        print("\n" + render(spec_metrics, cache_metrics))
    assert spec_metrics["speculated_clone"] > 0
    assert spec_metrics["bit_identical_cells"] == spec_metrics["cells"]
    assert spec_metrics["speedup"] > 1.0
    assert cache_metrics["warm_disk_hits"] > 0
    assert cache_metrics["warm_disk_misses"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_json_arg(parser)
    parser.add_argument("--sections", nargs="+", default=None,
                        help="restrict the grid to these report sections "
                             "(default: the full plan; CI uses a small "
                             "subset to fit its time budget)")
    args = parser.parse_args(argv)
    with Stopwatch() as watch:
        spec_metrics = measure_speculation(args.sections)
        cache_metrics = measure_analysis_cache()
    print(render(spec_metrics, cache_metrics))
    if args.json:
        write_json(args.json, bench_document(
            "speculation",
            params={"scale": GRID_SCALE, "seed": 0, "workers": 1,
                    "engine": "classic", "sections": args.sections},
            wall_s=watch.wall_s, cpu_s=watch.cpu_s,
            metrics={**spec_metrics,
                     **{f"analysis_{k}": v
                        for k, v in cache_metrics.items()}},
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
