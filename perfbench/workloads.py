"""The benchmark's four workloads: set-up, measured phase, output checks.

Each workload is a class with the same four steps, driven by ``run.py``:

* ``setup()`` — everything before the first timed operation (imports,
  trace generation, server start-up); timed as ``setup_s``.
* ``measure(seconds, tracer)`` — repeats the workload's operation until
  ``seconds`` have passed (always at least once) and records timings.
  With a :class:`~tracing.Tracer` the benchmark's own calls are spanned.
* ``check()`` — verifies every output against references, outside the
  timed phase; returns ``(attempted, failed, errors)``.
* ``teardown()`` — stops every process the workload started and removes
  its scratch files.

The operation is one report for ``report``/``report-jobs2``, one replay
pass over every cell for ``replay``, and one closed-loop round for
``serve`` (a fresh ``figure4`` and a fresh ``figure5`` request, then one
finished request of each section resubmitted).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import median, tail

__all__ = ["WORKLOADS", "report_layout", "fingerprint"]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_layout(text: str) -> str:
    """Digest of a report's section headings (each title with its
    ``====`` underline) and line count: the layout, which no seed
    changes, unlike table widths and pass/fail words."""
    lines = text.split("\n")
    headings = [lines[i] + "\n" + lines[i + 1] for i in range(len(lines) - 1)
                if lines[i + 1] and set(lines[i + 1]) == {"="}]
    return sha256_text("\n".join(headings) + f"\n{len(lines)}")


def fingerprint(result) -> str:
    """Per-cell fingerprint: execution time, per-processor cycle
    accounting, the 4-way miss decomposition per cache, interconnect
    traffic and the pairwise coherence matrix."""
    material = {
        "execution_time": int(result.execution_time),
        "processors": [[p.busy, p.switching, p.idle, p.completion_time]
                       for p in result.processors],
        "caches": [[c.hits] + [c.misses[k] for k in sorted(
                        c.misses, key=lambda kind: kind.value)]
                   for c in result.caches],
        "traffic": [result.interconnect.memory_fetches,
                    result.interconnect.invalidations_sent],
        "pairwise": result.pairwise_coherence.tolist(),
        "total_refs": int(result.total_refs),
    }
    return sha256_text(json.dumps(material, sort_keys=True))[:16]


class Workload:
    """Shared plumbing: context, scratch directory, named metrics."""

    name = ""
    #: Name of the operation ``wall_s``, ``cpu_s`` and the per-layer
    #: sums are per.
    operation = ""

    def __init__(self, *, root: Path, scratch: Path, seed: int, tiny: bool,
                 refs: dict) -> None:
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.tiny = tiny
        self.refs = refs
        #: Wall seconds of each measured operation.
        self.op_seconds: list[float] = []
        #: Per-layer values not derived from spans: sums over the measured
        #: phase (reported per operation) and per-call statistics.
        self.layer_totals: dict = {}
        self.layer_stats: dict = {}

    def params(self) -> dict:
        return {}

    def watched_pids(self) -> tuple[int, ...]:
        """Live processes outside this one whose CPU/RSS count."""
        return ()

    def wall_s(self) -> float:
        """The gated wall time of one operation (median by default)."""
        return median(self.op_seconds)

    def small_op(self) -> tuple[float, int]:
        """``(milliseconds, samples)`` of the workload's smallest
        operation, gated as ``small_op_ms``."""
        raise NotImplementedError

    def named_metrics(self) -> list[tuple[str, float | None, str, int, str]]:
        """The workload's own end-to-end metrics, printed with the gated ones:
        ``(name, value, unit, samples, note)``."""
        return []

    def stop_processes(self) -> None:
        """Stop helper processes once measured (before the checks)."""

    def teardown(self) -> None:
        pass


def _tail_row(name: str, values: list[float], scale: float, unit: str):
    q, value = tail(values)
    if q is None:
        return (name, None, unit, len(values),
                "n/a: fewer than 20 samples")
    return (name, value * scale, unit, len(values), f"p{q:g}")


# ----------------------------------------------------------------------
# report / report-jobs2
# ----------------------------------------------------------------------

class ReportWorkload(Workload):
    """The product: one full report through ``run_suite``."""

    name = "report"
    operation = "report"
    jobs = 1

    def params(self) -> dict:
        from repro.workload.applications import DEFAULT_SCALE

        if self.tiny:
            return {"sections": ["figure4"], "scale": 0.001, "jobs": self.jobs}
        return {"sections": None, "scale": DEFAULT_SCALE, "jobs": self.jobs}

    def setup(self) -> None:
        from repro.experiments.api import SuiteRequest

        params = self.params()
        self.request = SuiteRequest(
            sections=tuple(params["sections"]) if params["sections"] else None,
            scale=params["scale"], seed=self.seed)
        self.cells = len(self.request.cell_ids())
        #: Per operation: (report sha256, layout, missing, failures, journal)
        self.outputs: list[tuple] = []

    def _options(self, run_dir: Path):
        return None

    def measure(self, seconds: float, tracer) -> None:
        import repro.experiments.api as api

        began = time.perf_counter()
        while True:
            run_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                            dir=self.scratch))
            options = self._options(run_dir)
            start = time.perf_counter()
            if tracer is not None:
                result = tracer.call("experiments.run_suite", api.run_suite,
                                     self.request, options)
            else:
                result = api.run_suite(self.request, options)
            text = result.report_text
            self.op_seconds.append(time.perf_counter() - start)
            self.outputs.append((
                sha256_text(text), report_layout(text),
                len(result.suite.missing), len(result.failures),
                run_dir / "journal.jsonl" if options is not None else None,
            ))
            del result, text
            _reap_workers()
            if time.perf_counter() - began >= seconds:
                break
        journals = [out[4] for out in self.outputs if out[4] is not None]
        if journals:
            totals, stats = journal_layer_metrics(journals)
            self.layer_totals.update(totals)
            self.layer_stats.update(stats)

    def check(self) -> tuple[int, int, list[str]]:
        expected = self.refs.get("report", {}).get(self.request.digest)
        layout_ref = self.refs.get("report_layout")
        errors: list[str] = []
        failed = 0
        for index, (digest, layout, missing, failures, _j) in enumerate(
                self.outputs):
            if expected is not None and digest != expected:
                errors.append(f"report {index}: sha256 {digest[:16]} != "
                              f"reference {expected[:16]}")
                failed += self.cells
            elif (expected is None and self.request.sections is None
                  and layout_ref is not None and layout != layout_ref):
                errors.append(f"report {index}: layout differs from the "
                              "reference report's")
                failed += self.cells
            else:
                failed += missing
                if missing:
                    errors.append(f"report {index}: {missing} MISSING cells")
            if failures:
                errors.append(f"report {index}: {failures} failed cells")
        if expected is None:
            errors.append(f"note: no reference digest for request "
                          f"{self.request.digest}; checked layout and "
                          "MISSING cells only")
        return self.cells * len(self.outputs), failed, errors

    def small_op(self) -> tuple[float, int]:
        """A report's time per cell (the report has no smaller operation
        that runs without tracing)."""
        return median(self.op_seconds) / self.cells * 1e3, len(self.op_seconds)

    def named_metrics(self):
        return [("report_s", median(self.op_seconds), "s",
                 len(self.op_seconds), "median")]


class ReportJobs2Workload(ReportWorkload):
    """The same report through the engine: 2 workers, fresh store and
    journal per operation."""

    name = "report-jobs2"
    jobs = 2

    def _options(self, run_dir: Path):
        from repro.experiments.api import RunOptions

        return RunOptions(jobs=2, cache_dir=str(run_dir / "cache"),
                          journal=str(run_dir / "journal.jsonl"))


def _reap_workers(timeout: float = 60.0) -> None:
    """Wait until the engine's pool workers have exited and been reaped,
    so their CPU and peak RSS show in this process's child usage (the
    engine shuts its pool down without waiting)."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("engine workers did not exit")
        time.sleep(0.01)


def journal_layer_metrics(paths: list[Path]) -> tuple[dict, dict]:
    """``exec.*`` per-layer values read from engine journals:
    ``(totals, stats)``."""
    waits, busy, starts = [], [], []
    retries = failures = speculated = 0
    for path in paths:
        if not path.exists():
            continue
        queued: dict[str, float] = {}
        first_queued = None
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind, when = event.get("event"), event.get("time", 0.0)
            job = event.get("job")
            if kind == "queued":
                queued.setdefault(job, when)
                first_queued = when if first_queued is None else first_queued
            elif kind == "started" and job in queued and event.get(
                    "attempt", 1) == 1:
                waits.append(when - queued[job])
            elif kind == "finished":
                duration = float(event.get("duration") or 0.0)
                busy.append(duration)
                if first_queued is not None:
                    starts.append(when - duration - first_queued)
            elif kind == "retrying":
                retries += 1
            elif kind == "failed":
                failures += 1
            elif kind == "speculated":
                speculated += 1
    totals = {
        "exec.cell_busy_s": sum(busy),
        "exec.retries": retries,
        "exec.failures": failures,
        "exec.speculated": speculated,
    }
    stats = {}
    if waits:
        stats["exec.queue_wait_p50_ms"] = median(waits) * 1e3
        stats["exec.queue_wait_tail_ms"] = (tail(waits)[1] or 0.0) * 1e3
    if busy:
        stats["exec.cell_p50_ms"] = median(busy) * 1e3
        stats["exec.cell_tail_ms"] = (tail(busy)[1] or 0.0) * 1e3
    if starts:
        stats["exec.first_start_s"] = max(0.0, min(starts))
    return totals, stats


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

class ReplayWorkload(Workload):
    """Fast-engine replay of LOAD-BAL and RANDOM cells, finite caches."""

    name = "replay"
    operation = "replay pass"
    algorithms = ("LOAD-BAL", "RANDOM")

    def params(self) -> dict:
        from repro.workload.applications import DEFAULT_SCALE, application_names

        apps = application_names()
        return {"apps": apps[:2] if self.tiny else apps,
                "scale": 0.001 if self.tiny else DEFAULT_SCALE,
                "algorithms": list(self.algorithms), "engine": "fast"}

    @staticmethod
    def _simulate(traces, placement, config, engine="fast"):
        # Looked up per call, so a traced run replays through the span.
        import repro.arch.simulator as simulator

        return simulator.simulate(traces, placement, config, engine=engine)

    def setup(self) -> None:
        from repro.arch.config import ArchConfig
        from repro.experiments.runner import ExperimentSuite
        from repro.workload.applications import spec_for

        params = self.params()
        suite = ExperimentSuite(scale=params["scale"], seed=self.seed)
        self.suite = suite
        self.cells = []
        for app in params["apps"]:
            traces = suite.traces(app)
            for processors in suite.processors_for(app):
                for algorithm in self.algorithms:
                    placement = suite.placement(app, algorithm, processors)
                    nominal = -(-spec_for(app).num_threads // processors)
                    config = ArchConfig(
                        num_processors=processors,
                        contexts_per_processor=max(
                            nominal, int(placement.cluster_sizes().max())),
                        cache_words=spec_for(app).cache_words,
                        associativity=1)
                    self.cells.append((f"{app}/{algorithm}/{processors}",
                                       traces, placement, config))
        # Warm pass: run compression and per-trace replay prep are
        # memoized on the traces, so the measured passes replay only.
        for _key, traces, placement, config in self.cells:
            self._simulate(traces, placement, config)
        #: Per measured simulate call: (cell index, seconds, result).
        self.calls: list[tuple[int, float, object]] = []

    def measure(self, seconds: float, tracer) -> None:
        began = time.perf_counter()
        while True:
            start = time.perf_counter()
            for index, (key, traces, placement, config) in enumerate(
                    self.cells):
                t0 = time.perf_counter()
                if tracer is not None:
                    with tracer.keyed(key):
                        result = self._simulate(traces, placement, config)
                else:
                    result = self._simulate(traces, placement, config)
                self.calls.append((index, time.perf_counter() - t0, result))
            self.op_seconds.append(time.perf_counter() - start)
            if time.perf_counter() - began >= seconds:
                break

    def check(self) -> tuple[int, int, list[str]]:
        params = self.params()
        stored = self.refs.get(self.name, {}).get(
            f"{params['scale']}/{self.seed}")
        errors: list[str] = []
        if stored is None or self.tiny:
            # No stored fingerprints for this seed: the classic engine, an
            # independent implementation, is the reference.
            expected = [fingerprint(self._simulate(traces, placement, config,
                                                   engine="classic"))
                        for _k, traces, placement, config in self.cells]
            errors.append("note: no stored replay fingerprints for this "
                          "seed; compared against the classic engine")
        else:
            expected = [stored.get(key) for key, *_ in self.cells]
        failed = 0
        for index, _seconds, result in self.calls:
            if fingerprint(result) != expected[index]:
                failed += 1
                if failed <= 5:
                    errors.append(f"cell {self.cells[index][0]}: "
                                  "fingerprint mismatch")
        return len(self.calls), failed, errors

    def _fastest(self) -> list[float]:
        """Each cell's fastest replay of the run's passes.

        Host contention on a shared machine comes and goes within a
        second and its share drifts over minutes, so a pass's median
        drifts with it; the fastest of a cell's repeats (the estimator
        ``timeit`` recommends) stays put, and any change to the replay
        path still moves every cell's fastest time."""
        best: dict[int, float] = {}
        for index, seconds, _result in self.calls:
            best[index] = min(seconds, best.get(index, seconds))
        return list(best.values())

    def wall_s(self) -> float:
        """One pass with each cell at its fastest."""
        return sum(self._fastest())

    def small_op(self) -> tuple[float, int]:
        """The median cell at its fastest: the fixed per-cell cost."""
        fastest = self._fastest()
        return median(fastest) * 1e3, len(fastest)

    def named_metrics(self):
        seconds = [s for _i, s, _r in self.calls]
        refs = sum(r.total_refs for _i, _s, r in self.calls)
        return [
            ("pass_p50_s", median(self.op_seconds), "s", len(self.op_seconds),
             "median pass"),
            ("sim_mrefs_per_s", refs / sum(self.op_seconds) / 1e6, "Mref/s",
             len(self.op_seconds), "over every measured pass"),
            ("cell_p50_ms", median(seconds) * 1e3, "ms", len(seconds),
             "median"),
            _tail_row("cell_tail_ms", seconds, 1e3, "ms"),
        ]

    def teardown(self) -> None:
        self.suite = None
        self.cells = []


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

class ServeWorkload(Workload):
    """``repro-serve`` in a subprocess, one closed-loop client."""

    name = "serve"
    operation = "served round"

    def params(self) -> dict:
        return {"sections": ["figure4", "figure5"], "scale": 0.001,
                "executors": 1, "clients": 1, "loop": "closed"}

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.data_dir = Path(tempfile.mkdtemp(prefix="serve-",
                                              dir=self.scratch))
        self.log_path = self.data_dir / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.log_path, "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.serve_cli",
                 "--host", "127.0.0.1", "--port", "0",
                 "--data-dir", str(self.data_dir / "data"),
                 "--executors", "1"],
                stdout=subprocess.DEVNULL, stderr=log, env=env,
                start_new_session=True)
        self.port = self._wait_for_port(timeout=60.0)
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}",
                                    timeout=60.0)
        deadline = time.monotonic() + 30.0
        while self.client.health().get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.05)
        self.rng = random.Random(self.seed)
        #: Per section, per fresh request: its payload, job id and every
        #: served body.
        self.fresh: dict[str, list[dict]] = {
            section: [] for section in self.params()["sections"]}
        self.job_seconds: list[float] = []
        self.queue_waits: list[float] = []
        self.repeat_seconds: list[float] = []
        #: Per round: its fresh requests' seconds summed, and its repeats'.
        self.round_jobs: list[float] = []
        self.round_repeats: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _wait_for_port(self, timeout: float) -> int:
        pattern = re.compile(rb"listening on http://[^:]+:(\d+)")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("service did not start: "
                           + self.log_path.read_text(errors="replace")[-2000:])

    def watched_pids(self) -> tuple[int, ...]:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            return (server.pid,)
        return ()

    def _op(self, tracer, name: str, fn, *args):
        """One client request; failures (HTTP errors, 429s) count."""
        from repro.service.client import ServiceError

        self.attempted += 1
        try:
            if tracer is not None:
                return tracer.call(name, fn, *args)
            return fn(*args)
        except (ServiceError, OSError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def _follow(self, job_id: str) -> int:
        events = 0
        for event in self.client.events(job_id, timeout=120.0):
            events += 1
            if event.get("event") == "job-end":
                break
        return events

    def _fresh(self, tracer, section: str) -> float | None:
        """Submit a fresh request, follow it to ``job-end``, fetch the
        report; returns the seconds taken (None if a request failed)."""
        payload = {"sections": [section], "scale": self.params()["scale"],
                   "seed": self.rng.randrange(1_000_000)}
        start = time.perf_counter()
        job = self._op(tracer, "service.submit", self.client.submit, payload)
        if job is None:
            return None
        events = self._op(tracer, "service.stream", self._follow, job["id"])
        if events is not None:
            self.layer_totals["service.stream_events"] = (
                self.layer_totals.get("service.stream_events", 0) + events)
        body = self._op(tracer, "service.report_fetch", self.client.report,
                        job["id"])
        if body is None:
            return None
        seconds = time.perf_counter() - start
        self.job_seconds.append(seconds)
        self.fresh[section].append({"payload": payload, "id": job["id"],
                                    "served": [body]})
        if tracer is not None:
            record = self._op(None, "service.job", self.client.job, job["id"])
            if record and record.get("started"):
                self.queue_waits.append(record["started"] - record["created"])
        return seconds

    def _repeat(self, tracer, section: str) -> float | None:
        """Resubmit a finished request of ``section`` and fetch its
        report; returns the seconds taken (None if a request failed)."""
        if not self.fresh[section]:
            return None
        again = self.rng.choice(self.fresh[section])
        start = time.perf_counter()
        job = self._op(tracer, "service.repeat_submit", self.client.submit,
                       again["payload"])
        if job is None:
            return None
        body = self._op(tracer, "service.repeat_fetch", self.client.report,
                        job["id"])
        if body is None:
            return None
        seconds = time.perf_counter() - start
        self.repeat_seconds.append(seconds)
        again["served"].append(body)
        return seconds

    def measure(self, seconds: float, tracer) -> None:
        sections = self.params()["sections"]
        began = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            jobs = [self._fresh(tracer, section) for section in sections]
            repeats = [self._repeat(tracer, section) for section in sections]
            if None not in jobs:
                self.round_jobs.append(sum(jobs))
            if None not in repeats:
                self.round_repeats.append(sum(repeats))
            self.op_seconds.append(time.perf_counter() - round_start)
            if time.perf_counter() - began >= seconds:
                break
        self._read_service_metrics(tracer)

    def _read_service_metrics(self, tracer) -> None:
        text = self._op(None, "service.metrics", self.client.metrics)
        counts = {"service.coalesced": 0, "service.reloaded": 0,
                  "service.rejected": 0}
        names = {"service_jobs_coalesced": "service.coalesced",
                 "service_jobs_reloaded": "service.reloaded",
                 "service_jobs_rejected": "service.rejected"}
        for line in (text or "").splitlines():
            if line.startswith("#") or not line.strip():
                continue
            metric = line.split("{", 1)[0].split()[0]
            if metric.endswith("_total"):
                metric = metric[:-len("_total")]
            if metric in names:
                counts[names[metric]] += int(float(line.split()[-1]))
        self.layer_totals.update(counts)
        if tracer is not None:
            for span, metric in (("service.submit", "service.submit_ms"),
                                 ("service.report_fetch",
                                  "service.report_fetch_ms")):
                durations = tracer.durations(span)
                if durations:
                    self.layer_stats[metric] = median(durations) * 1e3
        if self.queue_waits:
            self.layer_stats["service.queue_wait_ms"] = (
                median(self.queue_waits) * 1e3)
        totals, stats = journal_layer_metrics(
            sorted((self.data_dir / "data" / "jobs").glob("*/journal.jsonl")))
        self.layer_totals.update(totals)
        self.layer_stats.update(stats)

    def check(self) -> tuple[int, int, list[str]]:
        """Every served report must equal offline ``run_suite`` bytes."""
        from repro.experiments.api import SuiteRequest, run_suite

        failed = self.failed
        for entry in (e for entries in self.fresh.values() for e in entries):
            request = SuiteRequest.from_dict(entry["payload"])
            offline = run_suite(request).report_text.encode("utf-8")
            for body in entry["served"]:
                if body != offline:
                    failed += 1
                    self.errors.append(
                        f"job {entry['id'][:12]} ({request.describe()}): "
                        "served report differs from offline run_suite")
        return self.attempted, failed, list(self.errors)

    def wall_s(self) -> float:
        """Median round's two fresh requests (``figure4`` plus
        ``figure5``), each from submit to report fetched.  Summing per
        round keeps the two sections' different times out of the median."""
        return median(self.round_jobs) if self.round_jobs else None

    def small_op(self) -> tuple[float, int]:
        """Median round's two resubmitted finished requests."""
        if not self.round_repeats:
            return None, 0
        return median(self.round_repeats) * 1e3, len(self.round_repeats)

    def named_metrics(self):
        return [
            ("job_p50_s", median(self.job_seconds) if self.job_seconds
             else None, "s", len(self.job_seconds), "median"),
            _tail_row("job_tail_s", self.job_seconds, 1.0, "s"),
            ("repeat_p50_ms", median(self.repeat_seconds) * 1e3
             if self.repeat_seconds else None, "ms",
             len(self.repeat_seconds), "median"),
            _tail_row("repeat_tail_ms", self.repeat_seconds, 1e3, "ms"),
        ]

    def stop_processes(self) -> None:
        """SIGINT (graceful drain), then SIGKILL; always reaped."""
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            if server.poll() is None:
                os.killpg(server.pid, signal.SIGINT)
                try:
                    server.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    os.killpg(server.pid, signal.SIGKILL)
                    server.wait(timeout=15.0)
        except ProcessLookupError:
            server.wait(timeout=15.0)
        finally:
            self.server = None

    def teardown(self) -> None:
        self.stop_processes()
        data_dir = getattr(self, "data_dir", None)
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ReportWorkload, ReportJobs2Workload,
                              ReplayWorkload, ServeWorkload)
}
