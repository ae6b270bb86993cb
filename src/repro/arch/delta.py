"""Exact-clone speculation: answer a cell from an identical completed one.

Several placement algorithms frequently emit the *same* assignment (e.g.
the thread-balanced variants agreeing at small thread counts).  Same
trace set + same config + same placement + same quantum determines the
simulation completely, so a cell whose placement is identical to one
already simulated is a clone of that result: it is deep-copied, never
recomputed.  (Relabeled-but-permuted placements are NOT exact under
coherence coupling — the min-time heap breaks time ties by processor id,
and tie order is observable through the directory; see ``tests/oracle``
metamorphic notes — so only *identical* assignments qualify.)

The suite finds donors by placement (see
:meth:`repro.experiments.runner.ExperimentSuite._speculate`); this module
only guards the hand-over — an outcome is bit-for-bit the full replay's
result, or absent and the caller replays.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.stats import (
    CacheStats,
    InterconnectStats,
    MissKind,
    ProcessorStats,
    SimulationResult,
)
from repro.placement.base import PlacementMap
from repro.trace.stream import TraceSet

__all__ = [
    "SpeculationOutcome",
    "clone_result",
    "speculate_from_neighbor",
    "stash_speculation",
    "take_speculation",
]


# ----------------------------------------------------------------------
# Worker -> coordinator hand-off (mirrors repro.obs.probes' channel)
# ----------------------------------------------------------------------

#: Per-thread channel of speculation events the current job's runner
#: left for the engine's invoke harness to ship to the coordinator's
#: journal.  Thread-local, like the engine's worker suite slot: two
#: in-process executors (``repro-serve --executors N``) run jobs on two
#: threads, and neither may drain or drop the other's events.
_CHANNEL = threading.local()


def _pending() -> deque:
    events = getattr(_CHANNEL, "events", None)
    if events is None:
        # Bounded: on the sequential (engine-less) path nothing drains
        # the channel, and dropping old observability events beats
        # growing without limit.
        events = _CHANNEL.events = deque(maxlen=4096)
    return events


def stash_speculation(event: dict) -> None:
    """Deposit one cell's speculation outcome (worker side)."""
    _pending().append(event)


def take_speculation() -> list[dict]:
    """Pop every event this thread stashed (engine invoke harness)."""
    events = _pending()
    taken = list(events)
    events.clear()
    return taken


@dataclass
class SpeculationOutcome:
    """What one speculation attempt produced.

    ``result`` is None exactly when ``mode == "abort"``; ``detail`` names
    the reason for the journal.
    """

    result: SimulationResult | None
    mode: str  # "clone" | "abort"
    detail: str

    @property
    def hit(self) -> bool:
        return self.result is not None


def clone_result(result: SimulationResult) -> SimulationResult:
    """A deep, independent copy of a simulation result.

    Speculation must never hand out shared mutable state: the neighbor's
    result may be memoized by the suite, and downstream reporting mutates
    nothing today — but "today" is not a contract.
    """
    processors = [
        ProcessorStats(busy=s.busy, switching=s.switching, idle=s.idle,
                       completion_time=s.completion_time)
        for s in result.processors
    ]
    caches = []
    for stats in result.caches:
        copy = CacheStats(hits=stats.hits)
        for kind in MissKind:
            copy.misses[kind] = stats.misses[kind]
        caches.append(copy)
    return SimulationResult(
        execution_time=result.execution_time,
        processors=processors,
        caches=caches,
        interconnect=InterconnectStats(
            memory_fetches=result.interconnect.memory_fetches,
            invalidations_sent=result.interconnect.invalidations_sent,
        ),
        pairwise_coherence=np.array(result.pairwise_coherence,
                                    dtype=np.int64, copy=True),
        total_refs=result.total_refs,
    )


def speculate_from_neighbor(
    trace_set: TraceSet,
    placement: PlacementMap,
    config: ArchConfig,
    *,
    neighbor_placement: PlacementMap,
    neighbor_result: SimulationResult,
    quantum_refs: int = 256,
    probe=None,
    context: str | None = None,
) -> SpeculationOutcome:
    """Clone a completed neighbor cell's result for this cell.

    The neighbor must be the *same trace set, same config, same quantum*
    — the caller guarantees that (the suite keys donors by cell group
    and placement).  The clone is taken only when the placements are
    identical and the donor's shape matches this cell; otherwise the
    outcome is an abort (``result`` None) and the caller falls back to
    full replay.  ``quantum_refs``, ``probe`` and ``context`` are
    accepted for call-site stability and do not affect a clone.
    """
    if placement != neighbor_placement:
        return SpeculationOutcome(None, "abort", "placement differs")
    if (neighbor_result.num_processors != config.num_processors
            or neighbor_result.total_refs != trace_set.total_refs):
        return SpeculationOutcome(None, "abort", "neighbor shape mismatch")
    return SpeculationOutcome(
        clone_result(neighbor_result), "clone", "identical placement"
    )
