"""The benchmark's own tests (tiny workload sizes; ~1 minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, ServeWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def _children() -> set[int]:
    found: set[int] = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        text = (task / "children").read_text().split()
        found.update(int(pid) for pid in text)
    return found


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(w["name"] for w in SPEC["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seconds", "0.5", "--trace", trace,
                "--tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_sums_are_per_operation_with_setup_apart():
    tracer = Tracer()
    # One set-up span, then two measured operations of 3 s, each with a
    # nested 1 s machine set-up.
    tracer.spans = [["workload.build", 0.0, 1.0, None, None],
                    ["arch.simulate", 1.0, 4.0, None, "a"],
                    ["arch.setup", 1.0, 2.0, 1, "a"],
                    ["arch.simulate", 4.0, 7.0, None, "b"],
                    ["arch.setup", 4.0, 5.0, 3, "b"]]
    measured = layer_metrics(tracer.self_times(1),
                             {"arch.simulate_calls": 2}, ops=2,
                             totals={"exec.cell_busy_s": 6.0},
                             stats={"exec.cell_p50_ms": 5.0})
    assert measured["arch.replay_s"] == 2.0
    assert measured["arch.setup_s"] == 1.0
    assert measured["arch.simulate_calls"] == 1
    assert measured["exec.cell_busy_s"] == 3.0
    assert measured["exec.cell_p50_ms"] == 5.0
    assert measured["workload.build_s"] == 0.0
    assert layer_metrics(tracer.self_times(0, 1), {})[
        "workload.build_s"] == 1.0


def test_wrong_reference_digest_fails_the_run(tmp_path):
    from repro.experiments.api import SuiteRequest

    request = SuiteRequest(sections=("figure4",), scale=0.001, seed=0)
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"report": {request.digest: "0" * 64}}))
    done = _run("--workload", "report", "--seconds", "0.1", "--tiny",
                "--refs", str(refs))
    assert done.returncode != 0
    result = _result(done)
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]
    assert "error_rate" in done.stdout and "sha256" in done.stdout


def test_serve_subprocess_is_reaped_after_a_failed_request(tmp_path):
    workload = ServeWorkload(root=ROOT, scratch=tmp_path, seed=0, tiny=True,
                             refs={})
    before = _children()
    try:
        workload.setup()
        pid, port = workload.server.pid, workload.port
        assert workload._op(None, "service.submit", workload.client.submit,
                            {"no_such_field": 1}) is None
        assert workload.failed == 1 and workload.attempted == 1
    finally:
        workload.teardown()
    assert workload.server is None
    assert _children() == before
    assert not Path(f"/proc/{pid}").exists() or "Z" in Path(
        f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()


def test_serve_subprocess_is_reaped_when_the_run_raises(monkeypatch):
    def broken(self, seconds, tracer):
        raise RuntimeError("request loop failed")

    monkeypatch.setattr(ServeWorkload, "measure", broken)
    before = _children()
    with pytest.raises(RuntimeError, match="request loop failed"):
        run.main(["--workload", "serve", "--tiny", "--seconds", "0.1"])
    assert _children() == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "report", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
