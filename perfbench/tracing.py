"""Spans around calls into each layer, recorded from the benchmark's side.

:func:`instrument` swaps the public entry points of the program's layers
for thin wrappers that record one span per call, then restores the
originals on exit.  Nothing under ``src/`` changes: the wrappers replace
module attributes and class attributes only while the traced run lasts,
and never reach spawned engine workers or the service subprocess.

A span records its name, start, end, parent span and the key of the cell
it belongs to (the ``ExperimentSuite.run`` or replay cell being computed
when it opened).  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the run ends.  A layer's number is its *self time*: a span's duration
minus the durations of its direct children, which partitions the root
span's interval exactly because spans nest on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property

__all__ = ["Tracer", "instrument", "layer_metrics", "MEASURED", "SETUP",
           "PER_LAYER"]


class Tracer:
    """In-memory span recorder (single thread)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, key]`` per span.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.key: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.key]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def keyed(self, key: str):
        """Spans opened inside share ``key`` (one cell's identity)."""
        outer, self.key = self.key, key
        try:
            yield
        finally:
            self.key = outer

    def inside(self, name: str) -> bool:
        """Whether an open span is named ``name``."""
        return any(self.spans[i][0] == name for i in self._stack)

    def self_times(self, first: int = 0, last: int | None = None
                   ) -> dict[str, float]:
        """Summed self time per span name over ``spans[first:last]``.

        The bounds must fall where no span is open (between phases), so
        every parent of a span in the range is in the range too."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _key in spans:
            if parent is not None:
                child[parent - first] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _key) in enumerate(spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        """Wall durations of every span named ``name``."""
        return [end - start for n, start, end, _p, _k in self.spans
                if n == name]

    def dump(self, path) -> None:
        """Write every span (and the counts) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "key"],
            "spans": [[n, round(s - origin, 9), round(e - origin, 9), p, k]
                      for n, s, e, p, k in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Instrumentation of the layers' entry points
# ----------------------------------------------------------------------

def _swap_everywhere(original, replacement, patched: list) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``replacement`` (covers ``from x import f`` copies)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))


def _swap_attr(owner, attr: str, replacement, patched: list) -> None:
    patched.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public entry points in spans for the duration."""
    # Import every module whose entry points get wrapped, so that name
    # copies made by ``from ... import`` exist before the swap.
    import repro.arch.cache as arch_cache
    import repro.arch.delta as arch_delta
    import repro.arch.kernel as arch_kernel
    import repro.arch.processor as arch_processor
    import repro.arch.simulator as arch_simulator
    import repro.experiments.api  # noqa: F401 - holds a write_report copy
    import repro.experiments.cache as exp_cache
    import repro.experiments.report as exp_report
    import repro.experiments.runner as exp_runner
    import repro.placement.algorithms  # noqa: F401 - registers subclasses
    import repro.placement.base as placement_base
    import repro.placement.clustering as clustering
    import repro.placement.dynamic as dynamic
    import repro.topo.placement  # noqa: F401 - holds an agglomerate copy
    import repro.trace.analysis as analysis
    import repro.trace.runs as runs
    import repro.workload.applications as applications

    patched: list = []

    def spanned(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def count_cache(cache):
        tracer.counts["arch.cache_sets"] += int(cache.num_sets)

    def count_simulate(result):
        tracer.counts["arch.simulate_calls"] += 1
        tracer.counts["arch.sim_refs"] += int(result.total_refs)

    def count_clustering(result):
        tracer.counts["placement.merges"] += int(result.merges)
        tracer.counts["placement.backtracks"] += int(result.backtracks)
        tracer.counts["placement.relaxed"] += int(bool(result.relaxed))

    def count_spec(outcome):
        tracer.counts["experiments.spec_attempts"] += 1
        tracer.counts["experiments.spec_hits"] += int(bool(outcome.hit))

    def count_load(stored):
        tracer.counts["experiments.store_hits" if stored is not None
                      else "experiments.store_misses"] += 1

    def count_call(name):
        def after(_result):
            tracer.counts[name] += 1
        return after

    functions = [
        (applications.build_application, "workload.build",
         count_call("workload.build_calls")),
        (runs.compress_trace, "trace.compress",
         count_call("trace.compress_calls")),
        (clustering.agglomerate, "placement.agglomerate", count_clustering),
        (dynamic.measure_coherence_matrix, "placement.coherence", None),
        (arch_simulator.simulate, "arch.simulate", count_simulate),
        (arch_cache.make_cache, "arch.setup", count_cache),
        (arch_kernel.make_fast_cache, "arch.setup", count_cache),
        (arch_delta.speculate_from_neighbor, "experiments.spec", count_spec),
        (exp_report.write_report, "experiments.render", None),
    ]
    for fn, name, after in functions:
        _swap_everywhere(fn, spanned(name, fn, after), patched)

    methods = [
        (exp_cache.ResultStore, "load", "experiments.store_load", count_load),
        (exp_cache.ResultStore, "store", "experiments.store_commit", None),
        (exp_runner.ExperimentSuite, "prefetch", "exec.prefetch", None),
        (analysis.TraceSetAnalysis, "__init__", "trace.analysis", None),
    ]
    for cls in {arch_processor.Processor, arch_kernel.FastProcessor}:
        if "__init__" in cls.__dict__:
            methods.append((cls, "__init__", "arch.setup", None))
    def count_placement(_result):
        if not tracer.inside("placement.place"):
            tracer.counts["placement.calls"] += 1

    for cls in _subclasses(placement_base.PlacementAlgorithm):
        if "place" in cls.__dict__:
            methods.append((cls, "place", "placement.place",
                            count_placement))
    for cls, attr, name, after in methods:
        _swap_attr(cls, attr, spanned(name, cls.__dict__[attr], after),
                   patched)

    # The sharing analysis computes lazily: every cached property of
    # TraceSetAnalysis is analysis work, wherever it is first touched.
    for attr, value in list(vars(analysis.TraceSetAnalysis).items()):
        if isinstance(value, cached_property):
            timed = cached_property(spanned("trace.analysis", value.func))
            timed.__set_name__(analysis.TraceSetAnalysis, attr)
            _swap_attr(analysis.TraceSetAnalysis, attr, timed, patched)

    # Cell keys: every span opened while a suite cell is computed carries
    # the cell's identity; outermost placement calls are counted once.
    original_run = exp_runner.ExperimentSuite.run

    @functools.wraps(original_run)
    def keyed_run(self, app, algorithm, processors, **kwargs):
        key = f"{app}/{algorithm}/{processors}" + "".join(
            f"/{k}={v}" for k, v in sorted(kwargs.items())
            if k != "neighbors")
        with tracer.keyed(key):
            return original_run(self, app, algorithm, processors, **kwargs)

    _swap_attr(exp_runner.ExperimentSuite, "run", keyed_run, patched)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


#: Per-layer metrics of the measured phase: name -> unit.  Sums are per
#: operation (divided by the number of measured operations), so times and
#: counts do not grow with the run's length; ``*_p50_*``/``*_tail_*`` and
#: the service ``*_ms`` metrics are per-call statistics.
MEASURED: dict[str, str] = {
    "workload.build_s": "s",
    "workload.build_calls": "count",
    "trace.analysis_s": "s",
    "trace.compress_s": "s",
    "trace.compress_calls": "count",
    "placement.search_s": "s",
    "placement.calls": "count",
    "placement.merges": "count",
    "placement.backtracks": "count",
    "placement.relaxed": "count",
    "placement.coherence_s": "s",
    "arch.setup_s": "s",
    "arch.cache_sets": "count",
    "arch.replay_s": "s",
    "arch.simulate_calls": "count",
    "arch.sim_refs": "count",
    "experiments.spec_attempts": "count",
    "experiments.spec_hits": "count",
    "experiments.spec_hit_ratio": "ratio",
    "experiments.spec_s": "s",
    "experiments.store_load_s": "s",
    "experiments.store_commit_s": "s",
    "experiments.store_hits": "count",
    "experiments.store_misses": "count",
    "experiments.render_s": "s",
    "experiments.suite_s": "s",
    "exec.prefetch_s": "s",
    "exec.queue_wait_p50_ms": "ms",
    "exec.queue_wait_tail_ms": "ms",
    "exec.cell_busy_s": "s",
    "exec.cell_p50_ms": "ms",
    "exec.cell_tail_ms": "ms",
    "exec.first_start_s": "s",
    "exec.worker_cpu_s": "s",
    "exec.parent_cpu_s": "s",
    "exec.retries": "count",
    "exec.failures": "count",
    "exec.speculated": "count",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.stream_s": "s",
    "service.stream_events": "count",
    "service.report_fetch_ms": "ms",
    "service.coalesced": "count",
    "service.reloaded": "count",
    "service.rejected": "count",
    "bench.other_s": "s",
}

#: Layers that work during set-up (``replay`` builds its traces,
#: placements and warm pass there); reported once, as ``setup.<name>``.
SETUP = ("workload.build_s", "workload.build_calls", "trace.analysis_s",
         "trace.compress_s", "trace.compress_calls", "placement.search_s",
         "placement.calls", "arch.setup_s", "arch.replay_s",
         "arch.simulate_calls")

#: Every per-layer metric: name -> unit.  ``BENCHMARK.json`` lists these.
PER_LAYER: dict[str, str] = {
    **MEASURED, **{f"setup.{name}": MEASURED[name] for name in SETUP}}

#: Span name -> per-layer self-time metric.
_SELF_TIME = {
    "workload.build": "workload.build_s",
    "trace.analysis": "trace.analysis_s",
    "trace.compress": "trace.compress_s",
    "placement.place": "placement.search_s",
    "placement.agglomerate": "placement.search_s",
    "placement.coherence": "placement.coherence_s",
    "arch.setup": "arch.setup_s",
    "arch.simulate": "arch.replay_s",
    "experiments.spec": "experiments.spec_s",
    "experiments.store_load": "experiments.store_load_s",
    "experiments.store_commit": "experiments.store_commit_s",
    "experiments.render": "experiments.render_s",
    "experiments.run_suite": "experiments.suite_s",
    "exec.prefetch": "exec.prefetch_s",
    "service.stream": "service.stream_s",
}


def layer_metrics(self_times: dict, counts: dict, ops: int = 1,
                  totals: dict | None = None, stats: dict | None = None
                  ) -> dict:
    """Every :data:`MEASURED` metric of one phase.

    ``self_times`` and ``counts`` come from the phase's spans; ``totals``
    (summed like them) and ``stats`` (per-call statistics, kept as they
    are) from the workload.  Sums are divided by ``ops``.  Span names
    outside :data:`_SELF_TIME` (the benchmark's own loops, service round
    trips) fold into ``bench.other_s``; layers the phase never calls read 0.
    """
    values = {name: 0.0 if unit in ("s", "ms", "ratio") else 0
              for name, unit in MEASURED.items()}
    for span_name, seconds in self_times.items():
        values[_SELF_TIME.get(span_name, "bench.other_s")] += seconds
    for name, count in [*counts.items(), *(totals or {}).items()]:
        values[name] += count
    for name in values:
        values[name] /= ops
    attempts = values["experiments.spec_attempts"]
    values["experiments.spec_hit_ratio"] = (
        values["experiments.spec_hits"] / attempts if attempts else 0.0)
    values.update(stats or {})
    return values
