"""Unit tests for the exact-clone speculation entry point.

Hand-built scenarios pinning each piece individually — the deep copy,
the guard that refuses a donor of another shape or placement, and the
worker-to-coordinator event channel — so a regression names the broken
part.  The property suite (test_differential.py) covers the generated
universe.
"""

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.delta import (
    SpeculationOutcome,
    clone_result,
    speculate_from_neighbor,
    stash_speculation,
    take_speculation,
)
from repro.arch.simulator import simulate
from repro.oracle import diff_results
from repro.placement.base import PlacementMap
from repro.trace.stream import ThreadTrace, TraceSet


def _thread(tid, addrs, writes=None, gaps=None):
    n = len(addrs)
    return ThreadTrace(
        tid,
        np.asarray(gaps if gaps is not None else [1] * n, dtype=np.int64),
        np.asarray(addrs, dtype=np.int64),
        np.asarray(writes if writes is not None else [False] * n, dtype=bool),
    )


@pytest.fixture()
def small_world():
    """Four write-sharing threads on a three-processor machine."""
    rng = np.random.default_rng(11)
    traces = TraceSet("small", [
        _thread(tid, rng.integers(0, 64, 30).astype(np.int64),
                writes=rng.random(30) < 0.4)
        for tid in range(4)
    ])
    config = ArchConfig(3, 2, cache_words=64)
    placement = PlacementMap([0, 1, 2, 2], 3)
    return traces, config, placement


class TestCloneResult:
    def test_deep_copy_shares_nothing(self, small_world):
        traces, config, placement = small_world
        original = simulate(traces, placement, config, engine="fast")
        copy = clone_result(original)
        assert copy is not original
        assert not diff_results(copy, original,
                                actual_name="clone", expected_name="original")
        copy.processors[0].busy += 1
        copy.caches[0].hits += 1
        copy.pairwise_coherence[0, 1] += 1
        fresh = simulate(traces, placement, config, engine="fast")
        assert not diff_results(original, fresh,
                                actual_name="original", expected_name="fresh")


class TestSpeculateFromNeighbor:
    def test_clone_tier_is_exact_and_independent(self, small_world):
        traces, config, placement = small_world
        neighbor = simulate(traces, placement, config, engine="fast")
        outcome = speculate_from_neighbor(
            traces, PlacementMap(placement.assignment.copy(), 3), config,
            neighbor_placement=placement, neighbor_result=neighbor)
        assert outcome.hit and outcome.mode == "clone"
        assert outcome.result is not neighbor
        assert not diff_results(outcome.result, neighbor,
                                actual_name="clone", expected_name="full")

    def test_different_placement_aborts(self, small_world):
        traces, config, placement = small_world
        neighbor = simulate(traces, placement, config, engine="fast")
        moved = PlacementMap([0, 0, 1, 2], 3)
        outcome = speculate_from_neighbor(
            traces, moved, config,
            neighbor_placement=placement, neighbor_result=neighbor)
        assert not outcome.hit and outcome.mode == "abort"
        assert outcome.result is None and "placement" in outcome.detail

    def test_shape_mismatch_aborts(self, small_world):
        traces, config, placement = small_world
        neighbor = simulate(traces, placement, config, engine="fast")
        shrunk = PlacementMap([0, 1, 1], 3)
        outcome = speculate_from_neighbor(
            TraceSet("small", list(traces)[:3]), shrunk, config,
            neighbor_placement=shrunk, neighbor_result=neighbor)
        assert not outcome.hit and "shape" in outcome.detail
        outcome = speculate_from_neighbor(
            traces, placement, ArchConfig(4, 2, cache_words=64),
            neighbor_placement=placement, neighbor_result=neighbor)
        assert not outcome.hit and "shape" in outcome.detail


class TestEventChannel:
    def test_stash_take_roundtrip_and_drain(self):
        take_speculation()  # drain anything a prior test left behind
        stash_speculation({"speculation": "clone", "detail": "x"})
        stash_speculation({"speculation": "abort", "detail": "y"})
        assert take_speculation() == [
            {"speculation": "clone", "detail": "x"},
            {"speculation": "abort", "detail": "y"},
        ]
        assert take_speculation() == []

    def test_outcome_hit_property(self):
        assert not SpeculationOutcome(None, "abort", "").hit
