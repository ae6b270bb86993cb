"""Benchmark: service-layer overhead and throughput.

The service wraps the experiments engine in an HTTP job queue; this
benchmark pins what the wrapper itself costs, on a live loopback server:

* **request overhead** — latency and rate of the cheapest endpoint
  (``/healthz``), i.e. the floor the asyncio HTTP layer adds to any call;
* **submission throughput** — a burst of concurrent *identical*
  submissions: all must coalesce onto one job (one computation), and the
  burst must clear quickly since a coalesced submit does no engine work;
* **end-to-end latency** — submit → done → report fetched for a
  zero-cell suite (``table1``), isolating queue + render + artifact
  plumbing from simulation cost;
* **fresh-job latency** — submit → done → report fetched for jobs that
  simulate every cell (``figure5`` at scale 0.001, a new seed each, so
  nothing coalesces or hits the store): the served engine path itself —
  placement, replay, speculation, store commits and journal;
* **stream replay rate** — events/second drained from a finished job's
  journal stream (the SSE/NDJSON path's serving cost).

Pytest enforces loose sanity floors (the service is not a web server
benchmark; the floors only catch pathological regressions).  As a
script it emits the uniform repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py \\
        --json benchmarks/BENCH_service.json
"""

import argparse
import statistics
import sys
import tempfile
import threading
import time

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.manager import JobManager
from repro.service.server import start_in_background

#: The benchmark suite request: plans zero simulated cells, so the
#: engine cost is pure queue + render + artifact plumbing.
CHEAP = {"sections": ["table1"], "scale": 0.001}

#: The fresh-job request: a real grid slice, one new seed per job.
FRESH = {"sections": ["figure5"], "scale": 0.001}

#: Fresh jobs timed per run (the median is reported).
FRESH_JOBS = 5

#: Sanity floors (pathology detectors, not performance targets).
MIN_HEALTH_RPS = 20.0
MIN_REPLAY_EPS = 50.0


def _measure_health(client: ServiceClient, reps: int) -> dict:
    latencies = []
    for _ in range(reps):
        t0 = time.perf_counter()
        client.health()
        latencies.append(time.perf_counter() - t0)
    total = sum(latencies)
    return {
        "requests": reps,
        "rps": reps / total,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p95_ms": sorted(latencies)[int(0.95 * (reps - 1))] * 1e3,
    }


def _measure_submit_burst(base_url: str, submitters: int) -> dict:
    results = [None] * submitters
    barrier = threading.Barrier(submitters)

    def submit(slot):
        client = ServiceClient(base_url, tenant=f"bench-{slot}")
        barrier.wait()
        t0 = time.perf_counter()
        record = client.submit(CHEAP)
        results[slot] = (record, time.perf_counter() - t0)

    threads = [threading.Thread(target=submit, args=(slot,))
               for slot in range(submitters)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    burst_s = time.perf_counter() - t0
    records = [record for record, _ in results]
    created = sum(1 for record in records if record["created"])
    assert len({record["id"] for record in records}) == 1, (
        "identical submissions must coalesce onto one job")
    assert created == 1, f"expected one creation, got {created}"
    return {
        "submitters": submitters,
        "burst_s": burst_s,
        "submits_per_s": submitters / burst_s,
        "coalesced": submitters - created,
        "job_id": records[0]["id"],
    }


def _measure_job_latency(client: ServiceClient, job_id: str) -> dict:
    t0 = time.perf_counter()
    record = client.wait(job_id, timeout=300)
    done_s = time.perf_counter() - t0
    assert record["state"] == "done", record
    t0 = time.perf_counter()
    report = client.report(job_id)
    fetch_s = time.perf_counter() - t0
    return {
        "to_done_s": done_s,
        "report_fetch_s": fetch_s,
        "report_bytes": len(report),
    }


def _measure_fresh_jobs(client: ServiceClient, jobs: int) -> dict:
    seconds = []
    for seed in range(1, jobs + 1):
        t0 = time.perf_counter()
        record = client.submit({**FRESH, "seed": seed})
        assert record["created"], "a fresh job must not coalesce"
        done = client.wait(record["id"], timeout=300, poll_interval=0.01)
        assert done["state"] == "done", done
        client.report(record["id"])
        seconds.append(time.perf_counter() - t0)
    return {
        "jobs": jobs,
        "p50_s": statistics.median(seconds),
        "min_s": min(seconds),
        "max_s": max(seconds),
    }


def _measure_stream_replay(client: ServiceClient, job_id: str) -> dict:
    t0 = time.perf_counter()
    events = list(client.events(job_id, timeout=60))
    replay_s = time.perf_counter() - t0
    assert events and events[-1]["event"] == "job-end"
    return {
        "events": len(events),
        "replay_s": replay_s,
        "events_per_s": len(events) / max(replay_s, 1e-9),
    }


def measure_service(*, health_reps: int = 200, submitters: int = 16,
                    fresh_jobs: int = FRESH_JOBS) -> dict:
    """All five measurements over one short-lived loopback service."""
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        manager = JobManager(tmp, executors=2, registry=MetricsRegistry())
        handle = start_in_background(manager)
        try:
            client = ServiceClient(handle.url, tenant="bench")
            health = _measure_health(client, health_reps)
            burst = _measure_submit_burst(handle.url, submitters)
            latency = _measure_job_latency(client, burst["job_id"])
            replay = _measure_stream_replay(client, burst["job_id"])
            fresh = _measure_fresh_jobs(client, fresh_jobs)
        finally:
            handle.stop()
            manager.shutdown()
    return {"health": health, "submit_burst": burst, "job": latency,
            "fresh_job": fresh, "stream": replay}


def test_service_throughput():
    report = measure_service(health_reps=50, submitters=8, fresh_jobs=1)
    print()
    print(f"health {report['health']['rps']:.0f} req/s "
          f"(p50 {report['health']['p50_ms']:.2f} ms); "
          f"burst of {report['submit_burst']['submitters']} coalesced to "
          f"one job in {report['submit_burst']['burst_s']:.2f}s; "
          f"job done in {report['job']['to_done_s']:.2f}s; "
          f"fresh figure5 job {report['fresh_job']['p50_s']:.2f}s; "
          f"replay {report['stream']['events_per_s']:.0f} ev/s")
    assert report["health"]["rps"] > MIN_HEALTH_RPS, report["health"]
    assert report["stream"]["events_per_s"] > MIN_REPLAY_EPS, report["stream"]
    assert report["submit_burst"]["coalesced"] == 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="service-layer overhead and throughput")
    add_json_arg(parser)
    parser.add_argument("--health-reps", type=int, default=200,
                        help="health-endpoint requests (default 200)")
    parser.add_argument("--submitters", type=int, default=16,
                        help="concurrent identical submitters (default 16)")
    args = parser.parse_args(argv)
    with Stopwatch() as clock:
        report = measure_service(health_reps=args.health_reps,
                                 submitters=args.submitters)
    print(f"health endpoint   {report['health']['rps']:8.0f} req/s   "
          f"p50 {report['health']['p50_ms']:.2f} ms   "
          f"p95 {report['health']['p95_ms']:.2f} ms")
    print(f"submit burst      {report['submit_burst']['submits_per_s']:8.0f} "
          f"submits/s   ({report['submit_burst']['submitters']} submitters, "
          f"{report['submit_burst']['coalesced']} coalesced)")
    print(f"cheap job         {report['job']['to_done_s']:8.2f} s to done   "
          f"report fetch {report['job']['report_fetch_s'] * 1e3:.1f} ms")
    print(f"fresh figure5 job {report['fresh_job']['p50_s']:8.2f} s median "
          f"submit to report ({report['fresh_job']['jobs']} jobs, "
          f"{report['fresh_job']['min_s']:.2f}-"
          f"{report['fresh_job']['max_s']:.2f} s)")
    print(f"stream replay     {report['stream']['events_per_s']:8.0f} "
          f"events/s   ({report['stream']['events']} events)")
    ok = (report["health"]["rps"] > MIN_HEALTH_RPS
          and report["stream"]["events_per_s"] > MIN_REPLAY_EPS)
    if args.json:
        report["submit_burst"].pop("job_id")  # ephemeral; not a metric
        write_json(args.json, bench_document(
            "service_throughput",
            params={"health_reps": args.health_reps,
                    "submitters": args.submitters,
                    "suite": CHEAP,
                    "fresh_jobs": FRESH_JOBS,
                    "fresh_suite": FRESH},
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            metrics={**report, "within_budget": ok},
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
