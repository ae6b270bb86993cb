"""The service's job engine: a multi-tenant, coalescing run queue.

One :class:`JobManager` owns a data directory and a pool of worker
threads.  Submissions arrive as :class:`~repro.experiments.api.SuiteRequest`
objects and become :class:`Job` records whose id *is* the request's
SHA-256 content address (:attr:`SuiteRequest.digest`) — which makes
request coalescing a dictionary lookup:

* a submission whose digest matches a queued/running/finished job
  attaches to that job instead of enqueuing a second computation;
* all jobs share one :class:`~repro.experiments.cache.ResultStore`, so
  even *distinct* requests that overlap in planned cells share the
  cell-level work (the store is content-addressed too);
* a finished job survives restarts — its ``state.json``/report artifacts
  are reloaded lazily from disk, so resubmitting yesterday's request is
  a warm cache hit, not a rerun.

Admission control is two-gated: a per-tenant quota on *active* (queued +
running) jobs, then a global bound on queue depth.  Both rejections
raise a :class:`Busy` subtype carrying a ``retry_after`` estimate (an
EWMA of recent job durations) that the HTTP layer turns into
``429 + Retry-After``.

Everything the manager does is observable: per-state counters and
gauges flow through a :class:`~repro.obs.metrics.MetricsRegistry`, and
each job's engine run writes the standard JSONL journal that the
service's event streams (and ``repro-stats``) tail.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.experiments.export import export_json
from repro.obs.metrics import MetricsRegistry
from repro.util.atomicio import atomic_write_text

__all__ = ["Job", "JobManager", "Busy", "QueueFull", "QuotaExceeded",
           "JOB_STATES", "probe_writable"]

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Fallback Retry-After before any job has finished (seconds).
_DEFAULT_RETRY_AFTER = 5.0


def probe_writable(directory: str | Path) -> bool:
    """Whether ``directory`` accepts a small durable write right now.

    Writes and unlinks a probe file (pid-suffixed, so concurrent probes
    never collide).  This is the deep-health building block: a full
    disk, a revoked mount or a permissions regression turns the answer
    False long before a job fails on it.
    """
    directory = Path(directory)
    probe = directory / f".health-probe-{os.getpid()}"
    try:
        with open(probe, "w", encoding="ascii") as stream:
            stream.write("ok\n")
            stream.flush()
        probe.unlink()
    except OSError:
        try:
            probe.unlink()
        except OSError:
            pass
        return False
    return True


class Busy(Exception):
    """Base for admission-control rejections (HTTP 429).

    ``retry_after`` is the manager's estimate of when capacity frees up,
    in whole seconds (at least 1).
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(round(retry_after)))


class QueueFull(Busy):
    """The global queue is at its depth bound."""


class QuotaExceeded(Busy):
    """The submitting tenant is at its active-job quota."""


@dataclass
class Job:
    """One submitted run: the unit the queue, the API and the disk share.

    ``id`` equals the request digest, so it is simultaneously the
    coalescing key, the journal directory name and the handle clients
    poll.  ``tenants`` accumulates every tenant that submitted (or
    coalesced onto) the job; quota accounting charges each of them while
    the job is active.
    """

    id: str
    request: SuiteRequest
    tenants: set = field(default_factory=set)
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    coalesced: int = 0                 #: extra submissions absorbed
    directory: Path | None = None

    @property
    def journal_path(self) -> Path:
        """The engine journal this job's run appends to."""
        return self.directory / "journal.jsonl"

    @property
    def report_path(self) -> Path:
        """The rendered text report (exists once ``done``)."""
        return self.directory / "report.txt"

    @property
    def report_json_path(self) -> Path:
        """The machine-readable JSON export (exists once ``done``)."""
        return self.directory / "report.json"

    @property
    def state_path(self) -> Path:
        """The persisted job record (written atomically at completion)."""
        return self.directory / "state.json"

    @property
    def active(self) -> bool:
        """Whether the job still occupies queue/quota capacity."""
        return self.state in ("queued", "running")

    @property
    def terminal(self) -> bool:
        """Whether the job has reached ``done`` or ``failed``."""
        return self.state in ("done", "failed")

    def to_dict(self) -> dict:
        """The job as the JSON document the API returns."""
        return {
            "id": self.id,
            "state": self.state,
            "request": self.request.to_dict(),
            "describe": self.request.describe(),
            "tenants": sorted(self.tenants),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "coalesced": self.coalesced,
        }


class JobManager:
    """Run queue + worker pool + on-disk job store for the service.

    Args:
        data_dir: Root directory; jobs land under ``jobs/<digest>/`` and
            the shared result store under ``store/``.
        run_jobs: Worker *processes* each engine run fans out to (1 =
            in-thread sequential execution; per-cell SIGALRM timeouts
            need > 1 because workers then run in subprocesses).
        executors: Concurrent engine runs (worker threads).
        max_queue: Global bound on queued (not yet running) jobs.
        tenant_quota: Per-tenant bound on active (queued + running) jobs.
        retries: Per-cell retry budget passed to the engine.
        timeout: Per-cell timeout in seconds passed to the engine.
        registry: Metrics sink (a private one is created if omitted).
        speculate: Let runs answer a cell whose placement is identical
            to an already simulated one with a clone of that result (see
            :mod:`repro.arch.delta`); exact, so reports are
            byte-identical either way.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        run_jobs: int = 1,
        executors: int = 1,
        max_queue: int = 16,
        tenant_quota: int = 4,
        retries: int = 2,
        timeout: float | None = None,
        registry: MetricsRegistry | None = None,
        speculate: bool = True,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.store_dir = self.data_dir / "store"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.run_jobs = int(run_jobs)
        self.max_queue = int(max_queue)
        self.tenant_quota = int(tenant_quota)
        self.retries = int(retries)
        self.timeout = timeout
        self.speculate = bool(speculate)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._jobs: dict[str, Job] = {}
        self._queue: deque[Job] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._avg_seconds: float | None = None  # EWMA of job durations
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-exec-{i}",
                             daemon=True)
            for i in range(max(1, int(executors)))
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ------------------------------------------------------

    def submit(self, request: SuiteRequest, tenant: str = "default"
               ) -> tuple[Job, bool]:
        """Submit a run; returns ``(job, created)``.

        ``created`` is False when the submission coalesced onto an
        existing job (same content address, any state but ``failed``) or
        hit a finished job reloaded from disk.  A previously *failed*
        job is retried: it re-enters the queue as a fresh attempt.

        Raises:
            QuotaExceeded: the tenant is at its active-job quota.
            QueueFull: the global queue is at its depth bound.
        """
        digest = request.digest
        with self._cond:
            if self._closed:
                raise RuntimeError("manager is shut down")
            job = self._jobs.get(digest)
            if job is None:
                job = self._load_finished(digest, request)
            if job is not None and job.state != "failed":
                job.tenants.add(tenant)
                job.coalesced += 1
                self.registry.counter("service_jobs_coalesced").inc()
                return job, False
            active = sum(1 for j in self._jobs.values()
                         if j.active and tenant in j.tenants)
            if active >= self.tenant_quota:
                self._reject("quota")
                raise QuotaExceeded(
                    f"tenant {tenant!r} already has {active} active jobs "
                    f"(quota {self.tenant_quota})",
                    self._retry_after(active))
            if len(self._queue) >= self.max_queue:
                self._reject("queue")
                raise QueueFull(
                    f"queue is full ({self.max_queue} jobs waiting)",
                    self._retry_after(len(self._queue)))
            if job is None:
                job = Job(id=digest, request=request,
                          directory=self.jobs_dir / digest)
                job.directory.mkdir(parents=True, exist_ok=True)
                self._jobs[digest] = job
            else:  # retrying a failed job: reset to a fresh attempt
                job.state = "queued"
                job.error = None
                job.started = job.finished = None
                job.created = time.time()
            job.tenants.add(tenant)
            self.registry.counter("service_jobs_submitted").inc()
            self._queue.append(job)
            self.registry.gauge("service_queue_depth").set(len(self._queue))
            self._cond.notify()
        return job, True

    def _reject(self, reason: str) -> None:
        self.registry.counter("service_jobs_rejected", reason=reason).inc()

    def _retry_after(self, backlog: int) -> float:
        """Seconds until capacity likely frees: backlog x average job
        duration, clamped to [1, 120]."""
        avg = self._avg_seconds or _DEFAULT_RETRY_AFTER
        return min(120.0, max(1.0, avg * max(1, backlog)
                              / max(1, len(self._workers))))

    def _load_finished(self, digest: str, request: SuiteRequest
                       ) -> Job | None:
        """Reload a finished job from a previous process, if its
        artifacts survive on disk (state.json + report files)."""
        directory = self.jobs_dir / digest
        state_path = directory / "state.json"
        if not state_path.exists():
            return None
        try:
            record = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("state") != "done":
            return None
        if not (directory / "report.txt").exists():
            return None
        job = Job(id=digest, request=request, directory=directory,
                  state="done",
                  created=record.get("created", time.time()),
                  started=record.get("started"),
                  finished=record.get("finished"))
        job.tenants.update(record.get("tenants", []))
        self._jobs[digest] = job
        self.registry.counter("service_jobs_reloaded").inc()
        return job

    # -- lookup ----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        """The job with this id, from memory or reloaded from disk."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            state_path = self.jobs_dir / job_id / "state.json"
            if not state_path.exists():
                return None
            try:
                record = json.loads(state_path.read_text(encoding="utf-8"))
                request = SuiteRequest.from_dict(record["request"])
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                return None
            return self._load_finished(job_id, request)

    def list_jobs(self) -> list[Job]:
        """Every known job, newest first."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.created,
                          reverse=True)

    def stats(self) -> dict:
        """A point-in-time summary (the ``/v1/stats`` body)."""
        with self._cond:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            return {
                "jobs": by_state,
                "queue_depth": len(self._queue),
                "executors": len(self._workers),
                "run_jobs": self.run_jobs,
                "max_queue": self.max_queue,
                "tenant_quota": self.tenant_quota,
                "avg_job_seconds": self._avg_seconds,
            }

    def health(self, deep: bool = False) -> dict:
        """The ``/healthz`` body: liveness, or a deep readiness probe.

        Shallow (the default) only proves the process answers.  Deep
        mode — what the distributed liveness watchdog and rebalancer
        poll — additionally reports queue depth, how many executor
        threads are still alive, and whether the shared store accepts
        writes; ``status`` flips to ``"degraded"`` when any executor has
        died or the store is unwritable (the service still answers, but
        routing new work at it is unwise).
        """
        if not deep:
            return {"status": "ok"}
        with self._cond:
            queue_depth = len(self._queue)
            executors_alive = sum(
                1 for worker in self._workers if worker.is_alive())
            executors = len(self._workers)
        store_writable = probe_writable(self.store_dir)
        degraded = executors_alive < executors or not store_writable
        return {
            "status": "degraded" if degraded else "ok",
            "queue_depth": queue_depth,
            "executors": executors,
            "executors_alive": executors_alive,
            "store_writable": store_writable,
        }

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job reaches a terminal state (tests/CLI)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.terminal:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job
                self._cond.wait(remaining if remaining is not None else 1.0)

    # -- execution -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                job = self._queue.popleft()
                job.state = "running"
                job.started = time.time()
                self.registry.gauge("service_queue_depth").set(
                    len(self._queue))
                self.registry.gauge("service_jobs_running").set(
                    sum(1 for j in self._jobs.values()
                        if j.state == "running"))
            self._execute(job)
            with self._cond:
                self.registry.gauge("service_jobs_running").set(
                    sum(1 for j in self._jobs.values()
                        if j.state == "running"))
                self._cond.notify_all()

    def _execute(self, job: Job) -> None:
        """Run one job through the engine and persist its artifacts.

        Ordering matters for the event streams: the report files and
        ``state.json`` are written *before* the job's state flips to a
        terminal value, so a tailer using "job is terminal" as its stop
        signal (with one final drain, as :meth:`RunJournal.tail` does)
        observes every journal event and then finds the artifacts in
        place.
        """
        options = RunOptions(
            jobs=self.run_jobs,
            retries=self.retries,
            timeout=self.timeout if self.run_jobs > 1 else None,
            journal=str(job.journal_path),
            cache_dir=str(self.store_dir),
            speculate=self.speculate,
        )
        error: str | None = None
        try:
            result = run_suite(job.request, options, render=True)
            atomic_write_text(job.report_path, result.report_text,
                              encoding="utf-8")
            sections = (list(job.request.sections)
                        if job.request.sections is not None else None)
            export_json(result.suite, job.report_json_path,
                        sections=sections)
        except Exception as exc:  # a failed run must not kill the worker
            error = f"{type(exc).__name__}: {exc}"
        finished = time.time()
        record = {
            "state": "failed" if error else "done",
            "request": job.request.to_dict(),
            "tenants": sorted(job.tenants),
            "created": job.created,
            "started": job.started,
            "finished": finished,
            "error": error,
        }
        try:
            atomic_write_text(job.state_path,
                              json.dumps(record, sort_keys=True, indent=2)
                              + "\n", encoding="utf-8")
        except OSError:
            pass
        duration = finished - (job.started or finished)
        self.registry.histogram("service_job_seconds").observe(duration)
        if self._avg_seconds is None:
            self._avg_seconds = duration
        else:
            self._avg_seconds = 0.7 * self._avg_seconds + 0.3 * duration
        # The state flip is last: see the ordering note above.
        job.error = error
        job.finished = finished
        job.state = "failed" if error else "done"
        self.registry.counter("service_jobs_finished",
                              state=job.state).inc()

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the workers.

        Queued jobs still drain (a worker picks them up before exiting);
        the timeout bounds how long each join waits.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
