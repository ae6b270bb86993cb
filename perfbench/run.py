"""End-to-end benchmark of the evaluation grid (see README.md here).

Run from the repository root::

    python3 perfbench/run.py --workload report --seed 0 --seconds 10 --trace 0

Workloads: ``report``, ``report-jobs2``, ``replay``, ``serve``.  The
untraced run (``--trace 0``) prints every end-to-end metric; the traced
run (``--trace 1``) prints every per-layer metric, next to the end-to-end
figures of the last untraced run of the same workload.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-run"
sys.path.insert(0, str(HERE))

#: Set-ups per run; ``setup_s`` is their median (one in this process,
#: the rest in fresh interpreters so imports and memos start cold).
SETUP_REPEATS = 5

#: End-to-end metrics (``--trace 0``): name -> unit.  ``cpu_s`` is
#: printed with the workload's own metrics: it follows host contention
#: too closely to gate on a shared machine.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "small_op_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["report", "report-jobs2", "replay", "serve"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0, the product's)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase length; the operation repeats "
                             "until it has run this long (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: span the layers and print per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (not comparable to full runs)")
    parser.add_argument("--refs", type=Path, default=HERE / "refs.json",
                        help="reference digests (default %(default)s)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _setup_elsewhere(args, count: int) -> list[float]:
    """Time ``count`` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--refs", str(args.refs), "--setup-only"]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _compare_untraced(stem: str, seed: int, traced: dict) -> None:
    """Tracing overhead: traced end-to-end figures next to the last
    untraced run's of the same workload and size (same seed when there
    is one)."""
    results = OUT / "results"
    same_seed = results / f"{stem}-seed{seed}.json"
    candidates = [same_seed] if same_seed.exists() else sorted(
        results.glob(f"{stem}-seed*[0-9].json"),
        key=lambda p: p.stat().st_mtime)
    if not candidates:
        print("tracing overhead: no untraced run of this workload recorded "
              "yet; run it with --trace 0 first")
        return
    base = json.loads(candidates[-1].read_text(encoding="utf-8"))
    print(f"tracing overhead (untraced: seed {base['provenance']['seed']}, "
          f"{candidates[-1].name}):")
    for name, unit in END_TO_END.items():
        plain = base["metrics"].get(name, {}).get("value")
        spanned = traced[name]
        change = ((spanned - plain) / plain * 100.0 if plain and spanned
                  else 0.0)
        print(f"  {name:<14} traced {_format(spanned):>10} {unit:<3} "
              f"untraced {_format(plain):>10} {unit:<3} {change:+.1f}%")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    refs = json.loads(args.refs.read_text(encoding="utf-8"))

    from measure import TreeUsage, median, peak_rss_mb, provenance
    from tracing import PER_LAYER, SETUP, Tracer, instrument, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = WORKLOADS[args.workload](root=ROOT, scratch=scratch,
                                        seed=args.seed, tiny=args.tiny,
                                        refs=refs)
    try:
        if args.setup_only:
            start = time.perf_counter()
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        setup_samples = _setup_elsewhere(args, SETUP_REPEATS - 1)
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        with instrument(tracer) if tracer is not None else nullcontext():
            workload.setup()
            setup_samples.append(time.perf_counter() - start)
            if tracer is not None:
                setup_spans, setup_counts = len(tracer.spans), dict(
                    tracer.counts)
            usage = TreeUsage(workload.watched_pids())
            usage.start()
            workload.measure(args.seconds, tracer)
            usage.stop()
        rss = peak_rss_mb(workload.watched_pids())
        workload.stop_processes()
        attempted, failed, errors = workload.check()
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)

    ops = len(workload.op_seconds)
    small_op_ms, small_ops = workload.small_op()
    e2e = {
        "setup_s": median(setup_samples),
        "wall_s": workload.wall_s(),
        "small_op_ms": small_op_ms,
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setup_samples), "wall_s": ops,
               "small_op_ms": small_ops, "peak_rss_mb": 1}
    correct = failed == 0
    info = provenance(ROOT, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, traced=bool(args.trace),
                      params={**workload.params(), "tiny": args.tiny,
                              "setup_repeats": SETUP_REPEATS})

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({ops} x {workload.operation})")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print("end-to-end:")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {_format(e2e[name]):>12} {unit:<6} "
              f"n={samples[name]}")
    rows = workload.named_metrics() + [
        ("cpu_s", usage.cpu_s / ops, "s", ops,
         f"process tree CPU per {workload.operation}"),
        ("error_rate", failed / attempted if attempted else 0.0, "ratio",
         attempted, f"{failed} failed of {attempted}")]
    for name, value, unit, count, note in rows:
        print(f"  {name:<16} {_format(value):>12} {unit:<6} n={count} "
              f"({note})")
    print(f"  process cpu: parent {usage.parent_cpu_s:.3f} s, reaped "
          f"children {usage.children_cpu_s:.3f} s, server "
          f"{usage.watched_cpu_s:.3f} s")
    for error in errors:
        print(f"check: {error}")

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = args.workload + ("-tiny" if args.tiny else "")
    if args.trace:
        totals = dict(workload.layer_totals)
        if args.workload == "report-jobs2":
            totals["exec.worker_cpu_s"] = usage.children_cpu_s
            totals["exec.parent_cpu_s"] = usage.parent_cpu_s
        elif args.workload == "serve":
            totals["exec.worker_cpu_s"] = usage.watched_cpu_s
            totals["exec.parent_cpu_s"] = usage.parent_cpu_s
        measured_times = tracer.self_times(setup_spans)
        measured_counts = {name: count - setup_counts.get(name, 0)
                           for name, count in tracer.counts.items()}
        layers = layer_metrics(measured_times, measured_counts, ops, totals,
                               workload.layer_stats)
        at_setup = layer_metrics(tracer.self_times(0, setup_spans),
                                 setup_counts)
        layers.update({f"setup.{name}": at_setup[name] for name in SETUP})
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print(f"per-layer (self time per layer, per {workload.operation} of "
              f"the measured phase; set-up once, as setup.*):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {_format(layers[name]):>12} {unit}")
        roots = tracer.durations("experiments.run_suite")
        if roots:
            # Self times partition the root spans: their sum is report_s.
            covered = sum(measured_times.values()) / ops
            print(f"  traced report_s {sum(roots) / ops:.6f} s per report = "
                  f"sum of layer self times {covered:.6f} s, remainder "
                  f"experiments.render_s {layers['experiments.render_s']:.6f}"
                  " s included")
        _compare_untraced(stem, args.seed, e2e)
        tracer.dump(OUT / f"trace-{stem}-seed{args.seed}.json")
        suffix = "-traced"
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        suffix = ""
    (results / f"{stem}-seed{args.seed}{suffix}.json").write_text(
        json.dumps({"provenance": info, "correct": correct,
                    "attempted": attempted, "failed": failed,
                    "metrics": {n: {"value": v, "unit": END_TO_END[n]}
                                for n, v in e2e.items()},
                    "named": [list(row) for row in rows],
                    "errors": errors}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
