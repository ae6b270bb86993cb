"""Suite- and engine-level speculation equivalence.

The user-visible contract: running the real experiment pipeline with
speculation on produces *exactly* the results (and therefore reports) it
produces with speculation off — while actually speculating (>0 hits),
cloning exactly the cells whose placement repeats an earlier one, and
journaling each clone.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.delta import take_speculation
from repro.exec import ExecutionEngine, plan_sections
from repro.experiments import runner as runner_module
from repro.experiments.cache import ResultStore
from repro.experiments.runner import ExperimentSuite
from repro.obs.probes import SimProbe
from repro.oracle import diff_results

#: A small real grid slice with guaranteed duplicate placements (the
#: load-balanced variants agree at small thread counts), so the clone
#: tier must fire.
APP = "Water"
ALGOS = ("LOAD-BAL", "SHARE-REFS", "SHARE-REFS+LB", "MIN-SHARE",
         "MIN-PRIV", "MIN-PRIV+LB", "RANDOM")
PROCESSORS = 4


def _grid(suite):
    return {algo: suite.run(APP, algo, PROCESSORS) for algo in ALGOS}


class TestSuiteEquivalence:
    def test_speculative_suite_is_bit_identical_and_hits(self, monkeypatch):
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        spec.probe = SimProbe()
        speculated = _grid(spec)
        plain = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                speculate=False)
        expected = _grid(plain)
        for algo in ALGOS:
            diffs = diff_results(speculated[algo], expected[algo],
                                 actual_name="speculative",
                                 expected_name="plain")
            assert diffs == [], f"{algo}: " + "; ".join(diffs[:4])
        assert spec.probe.spec_attempts > 0
        assert spec.probe.spec_hits == spec.probe.spec_attempts
        assert spec.probe.spec_aborts == 0

        # On the figure4 grid, a cell whose placement equals an earlier
        # cell's in the same group is a clone (no ``simulate`` call) equal
        # to a fresh replay; every other cell simulates and leaves no
        # speculation event.  The grid runs twice, finite then infinite
        # cache: the same placements in another group must not clone.
        simulated = []
        real = runner_module.simulate

        def counting(*args, **kwargs):
            simulated.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate", counting)
        suite = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        take_speculation()  # drain anything a prior test left behind
        seen = set()
        clones = 0
        figure4 = plan_sections(["figure4"], scale=0.001, seed=0)
        for cell in figure4 + [replace(c, infinite=True) for c in figure4]:
            placement = suite.placement(cell.app, cell.algorithm,
                                        cell.processors,
                                        replicate=cell.replicate)
            donor_key = (cell.processors, cell.infinite, cell.associativity,
                         cell.cache_words, placement.assignment.tobytes())
            repeated = donor_key in seen
            seen.add(donor_key)
            del simulated[:]
            suite.run(cell.app, cell.algorithm, cell.processors,
                      infinite=cell.infinite,
                      associativity=cell.associativity,
                      cache_words=cell.cache_words,
                      replicate=cell.replicate)
            events = take_speculation()
            if repeated:
                clones += 1
                assert simulated == [], cell.describe()
                assert [e["speculation"] for e in events] == ["clone"], \
                    cell.describe()
                config = suite._machine(
                    cell.app, placement, infinite=cell.infinite,
                    associativity=cell.associativity,
                    cache_words=cell.cache_words)
                fresh = real(suite.traces(cell.app), placement, config,
                             engine="fast")
                assert diff_results(
                    suite.run(cell.app, cell.algorithm, cell.processors,
                              infinite=cell.infinite,
                              replicate=cell.replicate),
                    fresh, actual_name="clone",
                    expected_name="replay") == [], cell.describe()
            else:
                assert simulated == [placement], cell.describe()
                assert events == [], cell.describe()
        assert clones > 0

    def test_speculation_matches_classic_engine_too(self):
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        classic = ExperimentSuite(scale=0.001, seed=0, engine="classic",
                                  speculate=False)
        for algo in ALGOS[:4]:
            diffs = diff_results(
                spec.run(APP, algo, PROCESSORS),
                classic.run(APP, algo, PROCESSORS),
                actual_name="speculative-fast", expected_name="classic")
            assert diffs == [], f"{algo}: " + "; ".join(diffs[:4])

    def test_check_invariants_disables_speculation(self):
        suite = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                check_invariants=True)
        suite.probe = SimProbe()
        suite.run(APP, "LOAD-BAL", PROCESSORS)
        suite.run(APP, "SHARE-REFS+LB", PROCESSORS)
        assert suite.probe.spec_attempts == 0

    def test_random_replicates_speculate_exactly(self):
        """RANDOM draws differ per replicate; cloned or replayed, the
        replicate average must be unchanged."""
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        plain = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                speculate=False)
        for r in range(3):
            diffs = diff_results(
                spec.run(APP, "RANDOM", PROCESSORS, replicate=r),
                plain.run(APP, "RANDOM", PROCESSORS, replicate=r),
                actual_name="speculative", expected_name="plain")
            assert diffs == [], f"replicate {r}: " + "; ".join(diffs[:4])


class TestEngineIntegration:
    def test_engine_run_speculates_and_journals(self, tmp_path):
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0,
                                          engine="fast")
                 if s.processors == 4 and s.replicate == 0]
        journal = tmp_path / "journal.jsonl"
        engine = ExecutionEngine(workers=1,
                                 store=ResultStore(tmp_path / "store"),
                                 journal_path=str(journal))
        report = engine.run(specs)
        assert report.ok
        kinds = [e["event"] for e in report.events]
        assert "speculated" in kinds
        for event in report.events:
            if event["event"] == "speculated":
                assert event["mode"] == "clone"
                assert event["detail"]

        baseline = ExecutionEngine(workers=1,
                                   store=ResultStore(tmp_path / "plain"),
                                   speculate=False)
        expected = baseline.run(specs)
        assert expected.ok
        assert "speculated" not in [e["event"] for e in expected.events]
        for s in specs:
            diffs = diff_results(report.results[s.job_id],
                                 expected.results[s.job_id],
                                 actual_name="engine-speculative",
                                 expected_name="engine-plain")
            assert diffs == [], f"{s.describe()}: " + "; ".join(diffs[:4])

    def test_store_roundtrip_preserves_speculated_results(self, tmp_path):
        """A speculated result written to the store must read back equal
        (dtype/layout quirks in cloned results would surface here)."""
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0,
                                          engine="fast")
                 if s.processors == 2 and s.replicate == 0]
        store = ResultStore(tmp_path / "store")
        engine = ExecutionEngine(workers=1, store=store)
        report = engine.run(specs)
        assert report.ok
        for s in specs:
            loaded = store.load(s.store_key)
            assert loaded is not None
            assert not diff_results(loaded, report.results[s.job_id],
                                    actual_name="stored",
                                    expected_name="computed")
            pw = np.asarray(loaded.pairwise_coherence)
            assert pw.dtype == np.int64
