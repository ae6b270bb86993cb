"""The fast replay kernel: run-compressed contexts + array-backed caches.

``simulate(..., engine="fast")`` swaps the per-reference replay loop of
:class:`~repro.arch.processor.Processor` for this kernel while keeping the
scheduling, coherence and classification semantics *identical* — the
differential suite in ``tests/oracle/`` pins the two engines bit-for-bit
against each other and against the reference interpreter.

Why it is exact (the full argument is in ``docs/PERFORMANCE.md``):

* within one scheduling quantum only the owning processor acts, so no
  remote invalidation can land mid-quantum — a block confirmed resident
  stays resident for the rest of the quantum;
* a repeated same-block *hit* mutates no classification state: the
  direct-mapped cache only bumps its hit counter, and a set-associative
  cache's MRU move is idempotent once the block is at MRU;
* at most one write per run segment needs a real directory upgrade — the
  first one.  After it (or after a write fetch), the writer is the sole
  sharer and the last writer, so every later ``write_hit`` in the segment
  returns 0 invalidations and changes nothing.

So the kernel replays each run segment as: one slow-stepped reference
(which may miss, exactly like the classic loop), one optional directory
upgrade at the segment's first write, and one O(1) arithmetic step for
the remaining hits.  Runs are split at quantum edges so coherence
invalidations between quanta are observed at exactly the same points as
the classic engine.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.arch.cache import SetAssociativeCache
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.processor import Processor
from repro.arch.stats import CacheStats, MissKind, ProcessorStats
from repro.trace.runs import compress_trace
from repro.trace.stream import ThreadTrace, TraceSet

__all__ = ["ArrayDirectMappedCache", "FastContext", "FastProcessor",
           "make_fast_cache", "max_block_of"]

#: Departure-record codes for the array-backed classifier.
_NONE, _EVICTED, _INVALIDATED = 0, 1, 2

#: Module-level bindings of the miss kinds for the inlined classifier.
_COMPULSORY = MissKind.COMPULSORY
_INTRA = MissKind.INTRA_THREAD_CONFLICT
_INTER = MissKind.INTER_THREAD_CONFLICT
_INVALIDATION = MissKind.INVALIDATION


def max_block_of(trace_set: TraceSet, block_bits: int) -> int:
    """Largest block number any thread references (sizes the per-block
    classification arrays).  Memoized per trace alongside the compressed
    run structure, so repeated simulate calls pay dict lookups only.
    Streaming traces answer from their O(1) ``max_addr`` metadata — no
    chunk pass."""
    top = 0
    key = ("max_block", block_bits)
    for trace in trace_set:
        if trace.num_refs:
            if trace.streaming:
                got = trace.max_block(block_bits)
                if got > top:
                    top = got
                continue
            cache = trace._replay_cache
            if cache is None:
                cache = trace._replay_cache = {}
            got = cache.get(key)
            if got is None:
                got = cache[key] = int(trace.addrs.max()) >> block_bits
            if got > top:
                top = got
    return top


class ArrayDirectMappedCache:
    """Array-backed direct-mapped cache, interface-compatible with
    :class:`~repro.arch.cache.DirectMappedCache`.

    The tag store is a flat ``int64`` array indexed by set; the
    classification state (first-touch flags plus the one departure record
    each block can have) is flat arrays indexed by block number — the
    workloads' word-granular address spaces are small, so O(num_blocks)
    arrays beat hashing on every miss.  The arrays are plain Python
    lists, not ndarrays: the hot loop indexes them elementwise, where
    list access is severalfold faster than numpy scalar access, and
    ``[-1] * n`` construction beats ``np.full(n, -1).tolist()`` (no
    per-element object creation) — which matters for §4.3's
    "effectively infinite" cache configurations.
    """

    def __init__(self, config: ArchConfig, max_block: int) -> None:
        if config.associativity != 1:
            raise ValueError("ArrayDirectMappedCache requires associativity 1")
        self.num_sets = config.num_sets
        self._mask = self.num_sets - 1
        self._tags = [-1] * self.num_sets
        # numpy mirror of the tag store for the kernel's vectorized
        # whole-window hit scan; mutated only where ``_tags`` is (miss
        # install, eviction, invalidation), so the two never drift apart.
        self._tags_np = np.full(self.num_sets, -1, dtype=np.int64)
        size = max_block + 1
        self._seen = [False] * size
        self._departure = [_NONE] * size
        self._actor = [0] * size
        self.stats = CacheStats()

    def contains(self, block: int) -> bool:
        """Whether the block is currently resident."""
        return self._tags[block & self._mask] == block

    def access(
        self, block: int, thread_id: int
    ) -> tuple[MissKind | None, int | None, int | None]:
        """One reference; same contract as ``DirectMappedCache.access``."""
        index = block & self._mask
        tags = self._tags
        if tags[index] == block:
            self.stats.hits += 1
            return None, None, None

        invalidator: int | None = None
        if not self._seen[block]:
            kind = MissKind.COMPULSORY
            self._seen[block] = True
        elif self._departure[block] == _INVALIDATED:
            invalidator = self._actor[block]
            self._departure[block] = _NONE
            kind = MissKind.INVALIDATION
        else:
            evictor = (
                self._actor[block]
                if self._departure[block] == _EVICTED
                else thread_id
            )
            self._departure[block] = _NONE
            kind = (
                MissKind.INTRA_THREAD_CONFLICT
                if evictor == thread_id
                else MissKind.INTER_THREAD_CONFLICT
            )
        self.stats.record_miss(kind)

        evicted = tags[index]
        if evicted != -1:
            self._departure[evicted] = _EVICTED
            self._actor[evicted] = thread_id
        tags[index] = block
        self._tags_np[index] = block
        return kind, (evicted if evicted != -1 else None), invalidator

    def invalidate(self, block: int, by_processor: int) -> bool:
        """Coherence invalidation; True if the block was resident."""
        index = block & self._mask
        if self._tags[index] != block:
            return False
        self._tags[index] = -1
        self._tags_np[index] = -1
        self._departure[block] = _INVALIDATED
        self._actor[block] = by_processor
        return True

    def invalidator_of(self, block: int) -> int | None:
        """Processor whose write invalidated ``block``, if any."""
        if self._departure[block] == _INVALIDATED:
            return self._actor[block]
        return None

    def resident_blocks(self) -> set[int]:
        """All blocks currently resident (for invariant checks)."""
        return {b for b in self._tags if b != -1}


def make_fast_cache(config: ArchConfig, max_block: int):
    """The fast engine's cache: array-backed when direct-mapped, the
    standard LRU cache otherwise (the kernel's run loop works with both)."""
    if config.associativity == 1:
        return ArrayDirectMappedCache(config, max_block)
    return SetAssociativeCache(config)


class FastContext:
    """One hardware context over a run-compressed trace.

    Exposes the same replay-cursor surface as
    :class:`~repro.arch.processor.HardwareContext` (``pos``, ``blocks``,
    ``ready_time``, ``done``) so the oracle's invariant checker audits
    both engines identically.

    Like the classic context, the replay arrays cover one chunk
    ``[base, climit)`` at a time — run structure included, computed
    chunk-locally (runs split at chunk edges, which is exact; see
    ``docs/STREAMING.md``).  A materialized trace is a single chunk, so
    its layout and hot-loop arithmetic are unchanged.  ``hlen`` is the
    resident span's length, the scan heuristic's denominator (for a
    materialized trace it equals ``length``).
    """

    __slots__ = ("thread_id", "gaps", "blocks", "writes", "run_end",
                 "next_write", "prefix_gaps", "charge", "blocks_np",
                 "block_idx", "length", "num_runs", "hlen", "pos",
                 "ready_time", "done", "base", "climit", "_chunks")

    def __init__(self, trace: ThreadTrace, block_bits: int,
                 hit_cycles: int, set_mask: int) -> None:
        if trace.streaming:
            self.thread_id = trace.thread_id
            self.length = trace.num_refs
            self._chunks = trace.replay_chunks(block_bits, hit_cycles,
                                               set_mask)
            self.gaps = self.blocks = self.writes = ()
            self.run_end = self.next_write = self.prefix_gaps = ()
            self.charge = ()
            self.blocks_np = self.block_idx = np.empty(0, dtype=np.int64)
            self.num_runs = 0
            self.hlen = 1
            self.base = 0
            self.climit = 0
            self.pos = 0
            self.ready_time = 0
            self.done = self.length == 0
            return
        # The immutable replay data is memoized on the trace as one flat
        # tuple: repeated simulate calls over the same traces (experiment
        # grids, benchmarks) pay a single dict lookup plus slot stores,
        # which matters for apps with a hundred-plus short threads.
        memo = trace._replay_cache
        if memo is None:
            memo = trace._replay_cache = {}
        key = ("ctx", block_bits, hit_cycles, set_mask)
        data = memo.get(key)
        if data is None:
            compressed = compress_trace(trace, block_bits)
            data = memo[key] = (
                compressed.thread_id, compressed.gaps, compressed.blocks,
                compressed.writes, compressed.run_end,
                compressed.next_write, compressed.prefix_gaps,
                compressed.charge_prefix(hit_cycles), compressed.blocks_np,
                compressed.block_index(set_mask), compressed.num_refs,
                compressed.num_runs,
            )
        (self.thread_id, self.gaps, self.blocks, self.writes, self.run_end,
         self.next_write, self.prefix_gaps, self.charge, self.blocks_np,
         self.block_idx, self.length, self.num_runs) = data
        self._chunks = None
        self.hlen = self.length
        self.base = 0
        self.climit = self.length
        self.pos = 0
        self.ready_time = 0
        self.done = self.length == 0

    def _advance_chunk(self) -> None:
        """Swap the next chunk's compressed columns in (streaming only)."""
        start, compressed, charge, block_idx = next(self._chunks)
        self.base = start
        self.climit = start + compressed.num_refs
        self.gaps = compressed.gaps
        self.blocks = compressed.blocks
        self.writes = compressed.writes
        self.run_end = compressed.run_end
        self.next_write = compressed.next_write
        self.prefix_gaps = compressed.prefix_gaps
        self.charge = charge
        self.blocks_np = compressed.blocks_np
        self.block_idx = block_idx
        self.num_runs = compressed.num_runs
        self.hlen = compressed.num_refs

    def __repr__(self) -> str:
        return (
            f"FastContext(thread={self.thread_id}, pos={self.pos}/"
            f"{self.length}, ready={self.ready_time}, done={self.done})"
        )


class FastProcessor(Processor):
    """A :class:`Processor` whose replay loop steps block runs, not
    references.  Scheduling (``advance``/``_schedule_next``) is inherited
    unchanged — only ``_run`` differs."""

    def __init__(
        self,
        pid: int,
        config: ArchConfig,
        cache,
        directory: Directory,
        traces: list[ThreadTrace],
    ) -> None:
        if len(traces) > config.contexts_per_processor:
            raise ValueError(
                f"processor {pid} was assigned {len(traces)} threads but has "
                f"only {config.contexts_per_processor} hardware contexts"
            )
        self.pid = pid
        self.config = config
        self.cache = cache
        self.directory = directory
        set_mask = config.num_sets - 1
        self.contexts = [
            FastContext(t, config.block_bits, config.hit_cycles, set_mask)
            for t in traces
        ]
        self.stats = ProcessorStats()
        self.time = 0
        self.current = 0
        self.finished = all(c.done for c in self.contexts)
        if self.finished:
            self.stats.completion_time = 0
        # Optional SimProbe; same single-test gating as the classic engine
        # (``_pay_switch`` is inherited and reads it too).
        self._probe = None
        # Tier-latency bindings (see Processor.__init__): the per-source
        # lookup row and per-home-group memory row are precomputed tables,
        # so a tiered miss costs one list index; on the flat machine both
        # are None and every charge site takes the constant path.
        if config.tiered:
            topo = config.topology
            p = config.num_processors
            self._lat_row = topo.latency_rows(p)[pid]
            self._mem_lat = topo.memory_latency_row(pid, p)
            self._topo_groups = topo.groups
        else:
            self._lat_row = None
            self._mem_lat = None
            self._topo_groups = 1
        # Direct-mapped caches get the hit test inlined into the run loop;
        # set-associative ones go through cache.access (the MRU move is
        # stateful even on a hit).
        if isinstance(cache, ArrayDirectMappedCache):
            self._run = self._run_array  # type: ignore[method-assign]
            # Loop-invariant bindings for _run_array, unpacked once per
            # window instead of re-resolved attribute by attribute.  All
            # are stable references: the lists/dicts are mutated in place,
            # never reassigned.
            self._hot = (
                cache._tags, cache._mask, cache._tags_np, cache._seen,
                cache._departure, cache._actor, cache.stats.misses,
                directory.write_hit, directory._sharers.get,
                directory._last_writer.get, directory.evict,
                directory.fetch, directory.pairwise,
                config.flat_miss_latency, config.write_upgrade_stalls,
                pid, {pid}, self._lat_row, self._mem_lat,
                self._topo_groups, directory,
            )
        # Cumulative refs/windows served by _run_array: picks between the
        # vectorized whole-window hit scan (wins on long hit windows) and
        # the per-run Python loop (wins when misses cut windows short).
        # Purely a strategy choice — both paths replay identically.
        self._scan_refs = 0
        self._scan_windows = 0
        # Live (not-done) context slots in ascending order, so scheduling
        # never re-scans completed contexts (see _schedule_next).
        self._alive = [i for i, c in enumerate(self.contexts) if not c.done]

    # ------------------------------------------------------------------

    def _run_array(self, context: FastContext, quantum_refs: int) -> bool:
        """Replay block runs with the direct-mapped hit test inlined.

        Bit-for-bit equivalent to ``Processor._run`` (see the module
        docstring for the argument); returns True when the context
        stalled on a miss or a sequentially-consistent upgrade.

        A read-only run costs one tag compare and one prefix-sum span
        charge — no function calls.  ``next_write[pos]`` locates the one
        write per segment that needs a real directory upgrade (including
        a write at the run's first reference), so writes never cost a
        per-reference test.  Busy cycles and hit counts are recovered in
        O(1) at the end: every cycle charged in this loop is busy time
        (idle and switch costs are added by the scheduler, outside), and
        every consumed reference short of the one possible miss is a hit.

        When this processor's windows have averaged long (hit-rich
        workloads), the per-run loop is replaced by one vectorized scan
        of the whole window against the numpy tag mirror: residency
        cannot change mid-window before the first miss (only this
        processor acts, and its own hits and upgrades never touch its
        tag store), so the scan's first mismatch IS the classic loop's
        first miss.  The choice is a pure strategy switch; both paths
        produce identical results.
        """
        # ``sharers_get``/``last_writer_get`` feed the upgrade no-op
        # pre-test: when this processor is the last writer and the sole
        # sharer, write_hit provably changes nothing (it would re-store
        # the same last_writer and send 0 invalidations), so the kernel
        # skips the call outright.
        (tags, mask, tags_np, seen, departure, actor, miss_counts,
         write_hit, sharers_get, last_writer_get, dir_evict, dir_fetch,
         pairwise, memory_latency, upgrade_stalls, pid, pid_set,
         lat_row, mem_lat, topo_groups, directory) = self._hot
        tid = context.thread_id
        time = self.time
        start_time = time
        start_pos = context.pos
        pos = start_pos
        limit = min(pos + quantum_refs, context.length)
        stalled = False
        missed = 0

        # The quantum [pos, limit) is consumed chunk by chunk within this
        # one call: a chunk edge swaps arrays and continues, it is never
        # a scheduling event, so the quantum interleaving (and every
        # coherence outcome) matches the whole-column replay exactly.  A
        # materialized context is a single chunk — one outer iteration,
        # today's code path verbatim.  Indices below are chunk-local
        # (``i = pos - base``); block numbers stay global.
        while pos < limit:
            if pos >= context.climit:
                context._advance_chunk()
            base = context.base
            blocks = context.blocks
            writes = context.writes
            run_end = context.run_end
            next_write = context.next_write
            charge = context.charge
            i = pos - base
            iend = min(limit, context.climit) - base

            # Expected run iterations this window ≈ (average window length
            # so far) × (this span's runs per reference).  The ~2.7 µs scan
            # beats the ~0.25 µs-per-run Python loop past a dozen runs.
            if (self._scan_refs * context.num_runs
                    > 12 * self._scan_windows * context.hlen):
                # Vectorized window: one scan finds the first miss (or
                # none), then the hits are charged span-wise with one
                # directory upgrade per write-containing run segment.
                neq = (tags_np[context.block_idx[i:iend]]
                       != context.blocks_np[i:iend])
                k = int(neq.argmax())
                miss_at = (i + k) if neq[k] else iend
                if miss_at > i:
                    if not upgrade_stalls:
                        # Write-buffered machine (the paper's baseline): no
                        # hit can stall, so the whole span charges in one
                        # step and the walk below only performs each
                        # segment's one real directory upgrade.
                        w = next_write[i]
                        while w < miss_at:
                            wb = blocks[w]
                            if last_writer_get(wb) != pid or sharers_get(wb) != pid_set:
                                write_hit(wb, pid)
                            seg = run_end[w]
                            if seg >= miss_at:
                                break
                            w = next_write[seg]
                        time += charge[miss_at] - charge[i]
                        i = miss_at
                    else:
                        w = next_write[i]
                        while w < miss_at:
                            # Charge through this segment's first write: the
                            # one upgrade that can generate traffic or stall.
                            time += charge[w + 1] - charge[i]
                            i = w + 1
                            wb = blocks[w]
                            if last_writer_get(wb) != pid or sharers_get(wb) != pid_set:
                                if write_hit(wb, pid):
                                    context.ready_time = time + (
                                        memory_latency if lat_row is None
                                        else directory.last_upgrade_latency)
                                    stalled = True
                                    break
                            seg = run_end[w]
                            if seg >= miss_at:
                                break
                            w = next_write[seg]
                        if not stalled and i < miss_at:
                            time += charge[miss_at] - charge[i]
                            i = miss_at
                if not stalled and i < iend:
                    # Miss at the scan's first mismatch: classify (inlined
                    # ArrayDirectMappedCache.access — the hit test already
                    # ran), then the coherence transaction plus a full
                    # memory latency.
                    time += charge[i + 1] - charge[i]
                    block = blocks[i]
                    is_write = writes[i]
                    invalidator = None
                    if not seen[block]:
                        kind = _COMPULSORY
                        seen[block] = True
                    elif departure[block] == _INVALIDATED:
                        invalidator = actor[block]
                        departure[block] = _NONE
                        kind = _INVALIDATION
                    else:
                        evictor = (actor[block]
                                   if departure[block] == _EVICTED else tid)
                        departure[block] = _NONE
                        kind = _INTRA if evictor == tid else _INTER
                    miss_counts[kind] += 1
                    if self._probe is not None:
                        self._probe.misses[kind] += 1
                    index = block & mask
                    evicted = tags[index]
                    if evicted != -1:
                        departure[evicted] = _EVICTED
                        actor[evicted] = tid
                    tags[index] = block
                    tags_np[index] = block
                    i += 1
                    missed = 1
                    if evicted != -1:
                        dir_evict(evicted, pid)
                    source = dir_fetch(block, pid, is_write)
                    if kind is _INVALIDATION and invalidator is not None:
                        pairwise[pid, invalidator] += 1
                    elif kind is _COMPULSORY and source is not None:
                        pairwise[pid, source] += 1
                    if lat_row is None:
                        context.ready_time = time + memory_latency
                    elif source is not None:
                        context.ready_time = time + lat_row[source]
                    else:
                        context.ready_time = (
                            time + mem_lat[block % topo_groups])
                    stalled = True
            else:
                while i < iend:
                    block = blocks[i]
                    if tags[block & mask] == block:
                        # The whole remaining run is guaranteed hits up to
                        # the quantum edge: no remote action can intervene
                        # mid-quantum.
                        stop = run_end[i]
                        if stop > iend:
                            stop = iend
                        w = next_write[i]
                        if w < stop and upgrade_stalls:
                            # Charge through the segment's first write: the
                            # one upgrade that can generate traffic and
                            # stall.
                            time += charge[w + 1] - charge[i]
                            i = w + 1
                            if last_writer_get(block) != pid or sharers_get(block) != pid_set:
                                if write_hit(block, pid):
                                    context.ready_time = time + (
                                        memory_latency if lat_row is None
                                        else directory.last_upgrade_latency)
                                    stalled = True
                                    break
                            if i < stop:
                                # Later writes in the segment already own
                                # the block exclusively: directory no-ops.
                                time += charge[stop] - charge[i]
                                i = stop
                        else:
                            # Write-buffered machine: the segment's one real
                            # upgrade (if any) cannot stall, so the whole
                            # run charges in a single span.
                            if w < stop and (last_writer_get(block) != pid
                                             or sharers_get(block) != pid_set):
                                write_hit(block, pid)
                            time += charge[stop] - charge[i]
                            i = stop
                    else:
                        # Miss: classify (inlined ArrayDirectMappedCache
                        # .access — the hit test already ran), then the
                        # coherence transaction plus a full memory latency
                        # (the reference's cost is charged first, exactly
                        # like the classic loop).
                        time += charge[i + 1] - charge[i]
                        is_write = writes[i]
                        invalidator = None
                        if not seen[block]:
                            kind = _COMPULSORY
                            seen[block] = True
                        elif departure[block] == _INVALIDATED:
                            invalidator = actor[block]
                            departure[block] = _NONE
                            kind = _INVALIDATION
                        else:
                            evictor = (actor[block]
                                       if departure[block] == _EVICTED else tid)
                            departure[block] = _NONE
                            kind = _INTRA if evictor == tid else _INTER
                        miss_counts[kind] += 1
                        if self._probe is not None:
                            self._probe.misses[kind] += 1
                        index = block & mask
                        evicted = tags[index]
                        if evicted != -1:
                            departure[evicted] = _EVICTED
                            actor[evicted] = tid
                        tags[index] = block
                        tags_np[index] = block
                        i += 1
                        missed = 1
                        if evicted != -1:
                            dir_evict(evicted, pid)
                        source = dir_fetch(block, pid, is_write)
                        if kind is _INVALIDATION and invalidator is not None:
                            pairwise[pid, invalidator] += 1
                        elif kind is _COMPULSORY and source is not None:
                            pairwise[pid, source] += 1
                        if lat_row is None:
                            context.ready_time = time + memory_latency
                        elif source is not None:
                            context.ready_time = time + lat_row[source]
                        else:
                            context.ready_time = (
                                time + mem_lat[block % topo_groups])
                        stalled = True
                        break

            pos = base + i
            if stalled:
                break

        self._scan_refs += pos - start_pos
        self._scan_windows += 1
        context.pos = pos
        # A context that stalled on its final reference is not done yet:
        # it completes when that access returns (same rule as the classic
        # engine).
        # The ``done`` guard matters: ``advance`` can run the initial
        # current slot even when its (empty) context was done at
        # construction and therefore never entered ``_alive``.
        if pos >= context.length and not stalled and not context.done:
            context.done = True
            self._alive.remove(self.current)
        self.time = time
        self.stats.busy += time - start_time
        self.cache.stats.hits += pos - start_pos - missed
        return stalled

    def _run(self, context: FastContext, quantum_refs: int) -> bool:
        """Replay block runs until a miss, completion, or quantum expiry.

        Generic variant used for set-associative caches, where even a hit
        must go through ``cache.access`` for the LRU bookkeeping.  Same
        bit-for-bit contract as :meth:`_run_array`.
        """
        config = self.config
        cache = self.cache
        cache_access = cache.access
        cache_stats = cache.stats
        directory = self.directory
        write_hit = directory.write_hit
        pid = self.pid
        pairwise = directory.pairwise
        hit_cycles = config.hit_cycles
        memory_latency = config.flat_miss_latency
        lat_row = self._lat_row
        mem_lat = self._mem_lat
        topo_groups = self._topo_groups
        upgrade_stalls = config.write_upgrade_stalls
        tid = context.thread_id
        time = self.time
        busy = 0
        pos = context.pos
        limit = min(pos + quantum_refs, context.length)
        stalled = False

        # Chunk-by-chunk within the quantum, like :meth:`_run_array`:
        # chunk edges swap arrays, never schedule.
        while pos < limit:
            if pos >= context.climit:
                context._advance_chunk()
            base = context.base
            gaps = context.gaps
            blocks = context.blocks
            writes = context.writes
            run_end = context.run_end
            next_write = context.next_write
            prefix = context.prefix_gaps
            i = pos - base
            iend = min(limit, context.climit) - base

            while i < iend:
                # Slow-step the first reference of the (remaining) run: it
                # is the only one that can miss within this quantum.
                cost = gaps[i] + hit_cycles
                time += cost
                busy += cost
                block = blocks[i]
                is_write = writes[i]
                kind, evicted, invalidator = cache_access(block, tid)
                i += 1
                if kind is not None:
                    # Miss: coherence transaction plus a full memory
                    # latency.
                    if self._probe is not None:
                        self._probe.misses[kind] += 1
                    if evicted is not None:
                        directory.evict(evicted, pid)
                    source = directory.fetch(block, pid, is_write)
                    if kind is MissKind.INVALIDATION and invalidator is not None:
                        pairwise[pid, invalidator] += 1
                    elif kind is MissKind.COMPULSORY and source is not None:
                        pairwise[pid, source] += 1
                    if lat_row is None:
                        context.ready_time = time + memory_latency
                    elif source is not None:
                        context.ready_time = time + lat_row[source]
                    else:
                        context.ready_time = (
                            time + mem_lat[block % topo_groups])
                    stalled = True
                    break
                owned = False
                if is_write:
                    sent = write_hit(block, pid)
                    owned = True
                    if sent and upgrade_stalls:
                        context.ready_time = time + (
                            memory_latency if lat_row is None
                            else directory.last_upgrade_latency)
                        stalled = True
                        break
                # Bulk-replay the rest of the run (to the quantum edge):
                # all guaranteed hits — no remote action can intervene
                # mid-quantum.
                seg_end = run_end[i - 1]
                if seg_end > iend:
                    seg_end = iend
                if i < seg_end:
                    if not owned:
                        w = next_write[i]
                        if w < seg_end:
                            # Step through the segment's first write: the
                            # one upgrade that can generate traffic (or
                            # stall).
                            span = w + 1 - i
                            delta = (prefix[w + 1] - prefix[i]
                                     + span * hit_cycles)
                            time += delta
                            busy += delta
                            cache_stats.hits += span
                            i = w + 1
                            sent = write_hit(block, pid)
                            if sent and upgrade_stalls:
                                context.ready_time = time + (
                                    memory_latency if lat_row is None
                                    else directory.last_upgrade_latency)
                                stalled = True
                                break
                    if i < seg_end:
                        # Pure hits: any remaining writes already own the
                        # block exclusively, so they are directory no-ops.
                        span = seg_end - i
                        delta = prefix[seg_end] - prefix[i] + span * hit_cycles
                        time += delta
                        busy += delta
                        cache_stats.hits += span
                        i = seg_end

            pos = base + i
            if stalled:
                break

        context.pos = pos
        # A context that stalled on its final reference is not done yet:
        # it completes when that access returns (same rule as the classic
        # engine).
        # The ``done`` guard matters: ``advance`` can run the initial
        # current slot even when its (empty) context was done at
        # construction and therefore never entered ``_alive``.
        if pos >= context.length and not stalled and not context.done:
            context.done = True
            self._alive.remove(self.current)
        self.time = time
        self.stats.busy += busy
        return stalled

    def _schedule_next(self) -> int | None:
        """Round-robin pick over live contexts only.

        Identical policy to :meth:`Processor._schedule_next` — completed
        contexts are exactly the ones the base scan would skip, and
        ``_alive`` preserves ascending slot order, so walking it
        cyclically from the first slot past ``current`` visits the
        surviving candidates in the base loop's order (with ``current``
        itself last).  Avoids O(total contexts) rescans per switch on
        processors whose threads mostly finished — the classic engine
        keeps the straightforward scan.
        """
        alive = self._alive
        if not alive:
            self.finished = True
            self.stats.completion_time = self.time
            return None
        contexts = self.contexts
        cur = self.current
        time = self.time
        m = len(alive)
        # First live slot strictly after ``current`` (cyclic); negative
        # indexing wraps the tail of the ring to the front.
        start = bisect_right(alive, cur) - m
        for k in range(m):
            index = alive[start + k]
            if contexts[index].ready_time <= time:
                if index != cur:
                    self._pay_switch()
                self.current = index
                return self.time

        # Everyone is stalled: idle until the earliest miss completes,
        # breaking ties in round-robin distance from ``current``.
        n = len(contexts)
        ready_time, index = min(
            ((contexts[i].ready_time, i) for i in alive),
            key=lambda item: (item[0], (item[1] - cur) % n),
        )
        self.stats.idle += ready_time - time
        self.time = ready_time
        if index != cur:
            self._pay_switch()
        self.current = index
        return self.time
