"""Served runs clone from the worker suite's memo, never from disk.

An in-process engine run (``workers=1`` with a result store — the path
every served job takes) simulates a placement moments before another
cell of the same group repeats it, in the very suite that now clones it.
The worker suite holds no store, so the only store reads are the
engine's one cache probe per cell; and the rendered report stays
byte-equal to an offline run.
"""

from collections import Counter

from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.experiments.cache import ResultStore


class TestMemoFirstDonors:
    def test_inline_run_never_reads_its_own_cells_from_disk(
            self, tmp_path, monkeypatch):
        loads = Counter()
        original = ResultStore.load

        def spy(store, key):
            loads[key] += 1
            return original(store, key)

        monkeypatch.setattr(ResultStore, "load", spy)
        request = SuiteRequest(sections=("figure4",), scale=0.001)
        served = run_suite(request, RunOptions(
            journal=str(tmp_path / "run.jsonl"),
            cache_dir=str(tmp_path / "cache")))
        assert served.run is not None and served.run.ok
        assert served.run.summary.executed > 0
        # The worker suite cloned repeated placements from its own memo.
        assert any(event.get("event") == "speculated"
                   for event in served.run.events)
        # Each cell's key is read once — the engine's cache probe before
        # computing it — and never again to find a donor.
        assert loads and max(loads.values()) == 1

        offline = run_suite(request)
        assert served.report_text == offline.report_text
