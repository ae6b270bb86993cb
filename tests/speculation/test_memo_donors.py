"""Speculation donors resolve from the suite's memo before the store.

An in-process engine run (``workers=1`` with a result store — the path
every served job takes) computes a cell's hinted neighbors moments
before the cell itself, in the very suite that now needs them as
donors.  Those hints must resolve from that suite's memo; the read-only
neighbor store is only for cells another process computed.  Donor
choice is a pure strategy: the rendered report stays byte-equal to an
offline run.
"""

from repro.arch import delta
from repro.arch.delta import SpeculationOutcome
from repro.exec import engine as engine_module
from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.experiments.cache import ResultStore, cell_store_key
from repro.experiments.runner import ExperimentSuite


def _memo_store_keys(suite) -> set:
    """The store key of every cell in ``suite``'s memo."""
    return {
        cell_store_key(
            scale=suite.scale, seed=suite.seed,
            quantum_refs=suite.quantum_refs,
            app=cell[0], algorithm=cell[1], processors=cell[2],
            infinite=cell[3], associativity=cell[4], cache_words=cell[5],
            replicate=cell[6], topology=suite.topology_spec,
        )
        for cell in suite._results
    }


class TestMemoFirstDonors:
    def test_inline_run_never_reads_its_own_cells_from_disk(
            self, tmp_path, monkeypatch):
        neighbor_loads = []
        memo_loads = []
        original = ResultStore.load

        def spy(store, key):
            # The inline engine simulates in this thread, so its worker
            # suite is the current one.
            suite = engine_module._current_suite()
            if suite is not None and suite._neighbor_store is store:
                neighbor_loads.append(key)
                if key in _memo_store_keys(suite):
                    memo_loads.append(key)
            return original(store, key)

        monkeypatch.setattr(ResultStore, "load", spy)
        request = SuiteRequest(sections=("figure4",), scale=0.001)
        served = run_suite(request, RunOptions(
            journal=str(tmp_path / "run.jsonl"),
            cache_dir=str(tmp_path / "cache")))
        assert served.run is not None and served.run.ok
        assert served.run.summary.executed > 0
        # Hints were in play: the planner attached them and the worker
        # suite speculated from its own memo.
        assert any(event.get("event") == "speculated"
                   for event in served.run.events)
        assert memo_loads == []
        # A fresh store holds no other process's cells, so nothing at all
        # is read back for speculation.
        assert neighbor_loads == []

        offline = run_suite(request)
        assert served.report_text == offline.report_text


class TestDonorDedupe:
    def test_hints_naming_one_donor_try_it_once(self, tmp_path, monkeypatch):
        # A stored suite: on the hint path every hint could be fetched
        # from disk as a fresh object, so only dedupe by cell keeps the
        # registered donor from being tried again.
        suite = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                cache_dir=str(tmp_path / "cache"))
        suite.run("Water", "LOAD-BAL", 4)
        donor = suite.placement("Water", "LOAD-BAL", 4)
        target = suite.placement("Water", "MIN-SHARE", 4)
        assert donor != target  # a clone would end the search at once
        attempts = []

        def abort(traces, placement, config, *, neighbor_placement,
                  neighbor_result, **kwargs):
            attempts.append(neighbor_placement)
            return SpeculationOutcome(None, "abort", "forced for the test")

        monkeypatch.setattr(delta, "speculate_from_neighbor", abort)
        got = suite.run("Water", "MIN-SHARE", 4,
                        neighbors=(("LOAD-BAL", 0), ("LOAD-BAL", 0)))
        assert attempts == [donor]
        plain = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                speculate=False)
        assert (got.execution_time
                == plain.run("Water", "MIN-SHARE", 4).execution_time)

    def test_prefetched_donor_resolves_from_memo(self, tmp_path,
                                                 monkeypatch):
        # A prefetched cell lands in the memo without being registered as
        # a donor; a hint naming it must still find it without the store.
        donor_suite = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        donor = donor_suite.run("Water", "LOAD-BAL", 4)
        suite = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        suite._neighbor_store = ResultStore(tmp_path / "cache")
        suite._results[suite._cell("Water", "LOAD-BAL", 4, False, 1, None,
                                   0)] = donor
        loads = []
        monkeypatch.setattr(ResultStore, "load",
                            lambda store, key: loads.append(key))
        attempts = []
        real = delta.speculate_from_neighbor

        def count(*args, neighbor_result, **kwargs):
            attempts.append(neighbor_result)
            return real(*args, neighbor_result=neighbor_result, **kwargs)

        monkeypatch.setattr(delta, "speculate_from_neighbor", count)
        suite.run("Water", "SHARE-REFS", 4, neighbors=(("LOAD-BAL", 0),))
        assert loads == []
        assert attempts and attempts[0] is donor
