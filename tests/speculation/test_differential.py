"""Property suite: speculation is exact-or-absent over a generated universe.

Every case draws one trace set and *two* placements of it on the same
machine — the completed "neighbor" and the cell to speculate.  Whether
the clone fires (identical placements) or aborts (any other pair), the
observable contract is single: the cell's final result is bit-for-bit
the full replay's, on both engines.

The generated worlds are the oracle tier's deliberately dense small
universes (``tests/oracle/strategies.py``).

CI runs this file derandomized (``--hypothesis-profile=oracle-ci``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.config import ArchConfig  # noqa: E402
from repro.arch.delta import speculate_from_neighbor  # noqa: E402
from repro.arch.simulator import simulate  # noqa: E402
from repro.oracle import diff_results  # noqa: E402
from repro.placement.base import PlacementMap  # noqa: E402

from tests.oracle.strategies import QUANTA, trace_sets  # noqa: E402

pytestmark = pytest.mark.speculation


def _config_for(num_processors: int, contexts: int, draw_bits: int) -> ArchConfig:
    """A small dense machine; geometry varied by two drawn bits."""
    return ArchConfig(
        num_processors=num_processors,
        contexts_per_processor=contexts,
        cache_words=(16, 32, 64, 128)[draw_bits % 4],
        block_words=(1, 2, 4)[draw_bits % 3],
        memory_latency_cycles=(3, 11, 50)[draw_bits % 3],
    )


@st.composite
def neighbor_cases(draw):
    """(traces, neighbor placement, target placement, config, quantum) —
    both placements on the same machine, contexts sized for both.  About
    half the cases redraw the neighbor's assignment as an equal but
    distinct map, so the clone fires as often as it aborts."""
    traces = draw(trace_sets(max_threads=5, max_refs=25))
    n = traces.num_threads
    p = draw(st.integers(min_value=1, max_value=4))
    a = PlacementMap(draw(st.lists(st.integers(0, p - 1),
                                   min_size=n, max_size=n)), p)
    if draw(st.booleans()):
        b = PlacementMap(a.assignment.tolist(), p)
    else:
        b = PlacementMap(draw(st.lists(st.integers(0, p - 1),
                                       min_size=n, max_size=n)), p)
    contexts = max(1, int(a.cluster_sizes().max()),
                   int(b.cluster_sizes().max()))
    config = _config_for(p, contexts, draw(st.integers(0, 11)))
    quantum = draw(st.sampled_from(QUANTA))
    return traces, a, b, config, quantum


def _assert_exact_or_absent(traces, neighbor_pl, target_pl, config, quantum):
    neighbor = simulate(traces, neighbor_pl, config, quantum_refs=quantum,
                        engine="fast")
    outcome = speculate_from_neighbor(
        traces, target_pl, config,
        neighbor_placement=neighbor_pl, neighbor_result=neighbor,
        quantum_refs=quantum)
    if not outcome.hit:
        assert outcome.mode == "abort" and outcome.result is None
        return outcome
    for engine in ("fast", "classic"):
        full = simulate(traces, target_pl, config, quantum_refs=quantum,
                        engine=engine)
        diffs = diff_results(outcome.result, full,
                             actual_name=f"speculated[{outcome.mode}]",
                             expected_name=f"full-{engine}")
        assert diffs == [], (
            f"{outcome.mode} speculation diverged from {engine} replay "
            f"({traces.num_threads}t/{config.num_processors}p/q{quantum}): "
            + "; ".join(diffs[:4]))
    return outcome


class TestSpeculationDifferential:
    @settings(max_examples=120, deadline=None)
    @given(case=neighbor_cases())
    def test_exact_or_absent_on_dense_worlds(self, case):
        """Dense shared worlds: identical placements clone, every other
        pair aborts, and whichever happens must be invisible in the
        numbers."""
        traces, a, b, config, quantum = case
        outcome = _assert_exact_or_absent(*case)
        assert outcome.hit == (a == b)
