"""Tests for simulator probes: observation must not perturb results,
counters must be engine-invariant, and snapshots must cross processes."""

import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import MissKind
from repro.obs.probes import SimProbe, stash_pending, take_pending
from repro.oracle import diff_results
from repro.placement import LoadBal, PlacementInputs
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application, spec_for


@pytest.fixture(scope="module")
def cell():
    """A small real cell: Water, LOAD-BAL on 4 processors."""
    traces = build_application("Water", scale=0.001, seed=0)
    analysis = TraceSetAnalysis(traces)
    placement = LoadBal().place(PlacementInputs(analysis, 4))
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for("Water").cache_words,
    )
    return traces, placement, config


class TestProbeObservesOnly:
    def test_probed_run_is_bit_identical(self, cell):
        traces, placement, config = cell
        plain = simulate(traces, placement, config)
        probed = simulate(traces, placement, config, probe=SimProbe())
        assert diff_results(probed, plain, actual_name="probed",
                            expected_name="plain") == []

    def test_probed_fast_run_is_bit_identical(self, cell):
        traces, placement, config = cell
        plain = simulate(traces, placement, config, engine="fast")
        probed = simulate(traces, placement, config, engine="fast",
                          probe=SimProbe())
        assert diff_results(probed, plain, actual_name="probed",
                            expected_name="plain") == []


class TestProbeCounts:
    def test_misses_match_result_breakdown(self, cell):
        traces, placement, config = cell
        probe = SimProbe()
        result = simulate(traces, placement, config, probe=probe)
        assert probe.misses == result.miss_breakdown()
        assert probe.cells == 1
        assert probe.quanta > 0
        switching_cycles = sum(p.switching for p in result.processors)
        assert probe.switches * config.context_switch_cycles \
            == switching_cycles

    def test_engine_invariant(self, cell):
        """Classic and fast replay must report identical probe counts —
        including directory upgrades, which only count when invalidations
        are actually sent (the site the fast kernel may skip no-ops at)."""
        traces, placement, config = cell
        classic, fast = SimProbe(), SimProbe()
        simulate(traces, placement, config, probe=classic)
        simulate(traces, placement, config, engine="fast", probe=fast)
        assert classic.snapshot() == fast.snapshot()

    def test_accumulates_across_cells(self, cell):
        traces, placement, config = cell
        probe = SimProbe()
        simulate(traces, placement, config, probe=probe)
        one_run = probe.snapshot()
        simulate(traces, placement, config, probe=probe)
        two_runs = probe.snapshot()
        assert two_runs == {k: 2 * v for k, v in one_run.items()}


class TestSnapshotMerge:
    def test_snapshot_names_are_flat_and_stable(self):
        snap = SimProbe().snapshot()
        assert set(snap) == {
            "sim_cells", "sim_quanta", "sim_context_switches",
            "sim_directory_upgrades", "sim_miss_compulsory",
            "sim_miss_intra_conflict", "sim_miss_inter_conflict",
            "sim_miss_invalidation", "sim_misses_total",
            "sim_spec_attempts", "sim_spec_hits", "sim_spec_aborts",
        }
        assert all(v == 0 for v in snap.values())

    def test_merge_adds_speculation_counters(self):
        a, b = SimProbe(), SimProbe()
        a.spec_attempts, a.spec_hits, a.spec_aborts = 4, 3, 1
        b.spec_attempts, b.spec_hits = 2, 2
        a.merge(b)
        snap = a.snapshot()
        assert snap["sim_spec_attempts"] == 6
        assert snap["sim_spec_hits"] == 5
        assert snap["sim_spec_aborts"] == 1

    def test_merge_adds(self):
        a, b = SimProbe(), SimProbe()
        a.quanta, a.switches, a.upgrades, a.cells = 1, 2, 3, 1
        a.misses[MissKind.COMPULSORY] = 5
        b.quanta, b.cells = 10, 1
        b.misses[MissKind.INVALIDATION] = 7
        a.merge(b)
        snap = a.snapshot()
        assert snap["sim_quanta"] == 11
        assert snap["sim_cells"] == 2
        assert snap["sim_miss_compulsory"] == 5
        assert snap["sim_miss_invalidation"] == 7
        assert snap["sim_misses_total"] == 12

    def test_stash_take_pending(self):
        assert take_pending() is None
        stash_pending({"sim_cells": 1})
        assert take_pending() == {"sim_cells": 1}
        assert take_pending() is None
