"""Unit tests for the chunked streaming trace substrate.

Covers the chunk slicing and spill format (:mod:`repro.trace.chunks`),
the streaming trace/set surface and its adapters
(:mod:`repro.trace.streaming`), the per-chunk analysis-cache entries,
and the bounded-memory workload generators
(:mod:`repro.workload.streaming`).  The replay-level byte-identity
theorems live in ``tests/arch/test_streaming_replay.py``; here we pin
the building blocks: chunks are exact views, spills verify and damage
evicts, metadata is honest, and regeneration is deterministic.
"""

import numpy as np
import pytest

from repro.trace.analysis import ThreadProfile
from repro.trace.analysis_cache import AnalysisCache, chunk_digest
from repro.trace.chunks import (
    ChunkStore,
    MissingChunkError,
    TraceChunk,
    chunk_arrays,
)
from repro.trace.runs import _compress, run_length_stats
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.streaming import (
    StreamingThreadTrace,
    StreamingTraceSet,
    as_streaming,
    spill_trace_set,
)
from repro.workload.streaming import (
    StreamScenario,
    million_reference_scenario,
    spill_streaming_set,
)


def _trace(tid=0, n=100, seed=3, max_addr=255):
    rng = np.random.default_rng(seed + tid)
    return ThreadTrace(
        tid,
        rng.integers(0, 5, n).astype(np.int64),
        rng.integers(0, max_addr + 1, n).astype(np.int64),
        rng.random(n) < 0.3,
    )


def _trace_set(threads=3, n=100):
    return TraceSet("unit", [_trace(tid, n) for tid in range(threads)])


def _assert_chunks_cover(trace, chunks, chunk_refs):
    assert all(c.num_refs > 0 for c in chunks), "empty chunk emitted"
    assert all(c.num_refs <= chunk_refs for c in chunks)
    assert [c.start for c in chunks] == \
        list(range(0, trace.num_refs, chunk_refs))
    assert np.array_equal(np.concatenate([c.gaps for c in chunks]),
                          trace.gaps)
    assert np.array_equal(np.concatenate([c.addrs for c in chunks]),
                          trace.addrs)
    assert np.array_equal(np.concatenate([c.writes for c in chunks]),
                          trace.writes)


class TestChunkArrays:
    @pytest.mark.parametrize("chunk_refs", [1, 7, 64, 100, 1000])
    def test_chunks_tile_the_arrays_exactly(self, chunk_refs):
        trace = _trace(n=100)
        chunks = list(chunk_arrays(0, trace.gaps, trace.addrs, trace.writes,
                                   chunk_refs))
        _assert_chunks_cover(trace, chunks, chunk_refs)

    def test_empty_arrays_yield_no_chunks(self):
        empty = np.zeros(0, dtype=np.int64)
        assert list(chunk_arrays(0, empty, empty,
                                 np.zeros(0, dtype=bool), 8)) == []

    def test_start_offsets_incremental_batches(self):
        """A generator chunking each batch it produces offsets globally."""
        trace = _trace(n=20)
        first = list(chunk_arrays(0, trace.gaps[:12], trace.addrs[:12],
                                  trace.writes[:12], 5))
        rest = list(chunk_arrays(0, trace.gaps[12:], trace.addrs[12:],
                                 trace.writes[12:], 5, start=12))
        assert [c.start for c in first + rest] == [0, 5, 10, 12, 17]

    def test_chunk_refs_must_be_positive(self):
        trace = _trace(n=4)
        with pytest.raises(ValueError):
            list(chunk_arrays(0, trace.gaps, trace.addrs, trace.writes, 0))


class TestChunkStore:
    def _chunk(self, n=16, tid=1, start=32):
        trace = _trace(tid=tid, n=n)
        return TraceChunk(tid, start, trace.gaps, trace.addrs, trace.writes)

    def test_spill_load_roundtrip(self, tmp_path):
        store = ChunkStore(tmp_path)
        chunk = self._chunk()
        assert store.spill(chunk, 0)
        got = store.load(chunk.thread_id, 0)
        assert got.thread_id == chunk.thread_id
        assert got.start == chunk.start
        assert np.array_equal(got.gaps, chunk.gaps)
        assert np.array_equal(got.addrs, chunk.addrs)
        assert np.array_equal(got.writes, chunk.writes)

    def test_missing_chunk_raises(self, tmp_path):
        store = ChunkStore(tmp_path)
        with pytest.raises(MissingChunkError):
            store.load(0, 0)

    @pytest.mark.parametrize("damage", ["corrupt", "truncate", "unzip"])
    def test_damaged_chunk_is_evicted_and_missing(self, tmp_path, damage):
        store = ChunkStore(tmp_path)
        chunk = self._chunk()
        store.spill(chunk, 0)
        entry = tmp_path / ChunkStore.entry_name(chunk.thread_id, 0)
        data = entry.read_bytes()
        if damage == "corrupt":
            entry.write_bytes(data[:8] + bytes([data[8] ^ 0xFF]) + data[9:])
        elif damage == "truncate":
            entry.write_bytes(data[: len(data) // 2])
        else:
            entry.write_bytes(b"junk")
        with pytest.raises(MissingChunkError):
            store.load(chunk.thread_id, 0)
        assert not entry.exists()  # evicted, not left to poison re-loads
        # The caller regenerates: a fresh spill serves again.
        assert store.spill(chunk, 0)
        assert store.load(chunk.thread_id, 0).num_refs == chunk.num_refs


class TestStreamingAdapter:
    def test_metadata_matches_materialized(self):
        ts = _trace_set()
        stream = as_streaming(ts, chunk_refs=16)
        assert stream.streaming and not ts.streaming
        assert stream.num_threads == ts.num_threads
        assert stream.total_refs == ts.total_refs
        assert stream.total_length == ts.total_length
        for s, m in zip(stream, ts):
            assert s.num_refs == m.num_refs
            assert s.length == m.length
            assert s.num_writes == m.num_writes
            assert s.num_reads == m.num_reads
            assert s.max_addr == int(m.addrs.max())
            assert len(s) == len(m)

    def test_chunks_are_reiterable(self):
        stream = as_streaming(_trace_set(), chunk_refs=16)
        trace = stream[0]
        first = [c.start for c in trace.chunks()]
        second = [c.start for c in trace.chunks()]
        assert first == second and first[0] == 0

    def test_materialize_roundtrip(self):
        ts = _trace_set()
        back = as_streaming(ts, chunk_refs=7).materialize()
        assert back.name == ts.name
        for a, b in zip(back, ts):
            assert np.array_equal(a.gaps, b.gaps)
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.writes, b.writes)

    def test_max_block_matches(self):
        ts = _trace_set()
        stream = as_streaming(ts, chunk_refs=9)
        for s, m in zip(stream, ts):
            assert s.max_block(2) == int((m.addrs >> 2).max())

    def test_dense_thread_ids_enforced(self):
        trace = _trace(tid=1)
        stream = as_streaming(TraceSet("x", [_trace(0), trace]), 8)
        with pytest.raises(ValueError, match="dense"):
            StreamingTraceSet("bad", [stream[1]])


class TestSpill:
    def test_spill_trace_set_replays_from_disk(self, tmp_path):
        ts = _trace_set(threads=2, n=50)
        disk = spill_trace_set(ts, tmp_path, chunk_refs=16)
        back = disk.materialize()
        for a, b in zip(back, ts):
            assert np.array_equal(a.addrs, b.addrs)
        assert len(list(tmp_path.glob("*.npz"))) == 2 * 4  # ceil(50/16)

    def test_spill_failure_raises(self, tmp_path):
        from repro import faults

        ts = _trace_set(threads=1, n=10)
        with faults.installed("disk-full:chunks", tmp_path / "log"):
            with pytest.raises(OSError):
                spill_trace_set(ts, tmp_path / "store", chunk_refs=4)

    def test_damaged_spill_surfaces_missing_chunk(self, tmp_path):
        ts = _trace_set(threads=1, n=30)
        disk = spill_trace_set(ts, tmp_path, chunk_refs=10)
        victim = tmp_path / ChunkStore.entry_name(0, 1)
        victim.write_bytes(b"rot")
        with pytest.raises(MissingChunkError):
            disk.materialize()


class TestStreamingAnalysis:
    def test_thread_profile_identical(self):
        ts = _trace_set()
        stream = as_streaming(ts, chunk_refs=13)
        for s, m in zip(stream, ts):
            ps, pm = ThreadProfile.from_trace(s), ThreadProfile.from_trace(m)
            assert np.array_equal(ps.addrs, pm.addrs)
            assert np.array_equal(ps.reads, pm.reads)
            assert np.array_equal(ps.writes, pm.writes)
            assert ps.length == pm.length

    def test_run_length_stats_identical(self):
        ts = _trace_set()
        stream = as_streaming(ts, chunk_refs=11)
        assert run_length_stats(stream, 2) == run_length_stats(ts, 2)

    def test_chunk_analysis_cache_roundtrip(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        trace = _trace(n=40)
        chunk = next(chunk_arrays(0, trace.gaps, trace.addrs, trace.writes,
                                  40))
        expected = _compress(trace, 2)
        first = cache.fetch_chunk(chunk, 2)
        assert cache.misses == 1
        assert first.run_end == expected.run_end
        second = cache.fetch_chunk(chunk, 2)
        assert cache.hits == 1
        assert second.next_write == expected.next_write

    def test_chunk_digest_separates_position_and_content(self):
        trace = _trace(n=20)
        a, b = chunk_arrays(0, trace.gaps, trace.addrs, trace.writes, 10)
        assert chunk_digest(a) != chunk_digest(b)
        # Same bytes at the same position: same address.
        again = next(chunk_arrays(0, trace.gaps, trace.addrs,
                                  trace.writes, 10))
        assert chunk_digest(a) == chunk_digest(again)


class TestStreamScenario:
    def test_chunks_are_deterministic(self):
        spec = StreamScenario(num_threads=4, refs_per_thread=100,
                              seed=9, chunk_refs=32)
        a, b = spec.chunk(2, 1), spec.chunk(2, 1)
        assert np.array_equal(a.gaps, b.gaps)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.writes, b.writes)
        assert not np.array_equal(spec.chunk(3, 1).addrs, a.addrs)

    def test_metadata_is_honest(self):
        spec = StreamScenario(num_threads=5, refs_per_thread=77, seed=2,
                              chunk_refs=16, shared_words=64,
                              private_words=32)
        for s, m in zip(spec.build(), spec.build().materialize()):
            assert s.num_refs == m.num_refs == 77
            assert s.length == m.length
            assert s.num_writes == m.num_writes
            assert s.max_addr == int(m.addrs.max())

    def test_private_regions_are_disjoint(self):
        spec = StreamScenario(num_threads=3, refs_per_thread=60, seed=4,
                              chunk_refs=20, shared_words=16,
                              private_words=8, shared_fraction=0.5)
        for trace in spec.build().materialize():
            addrs = trace.addrs
            private = addrs[addrs >= spec.shared_words]
            base = spec.shared_words + trace.thread_id * spec.private_words
            assert ((private >= base)
                    & (private < base + spec.private_words)).all()

    def test_spill_streaming_set_roundtrip(self, tmp_path):
        spec = StreamScenario(num_threads=3, refs_per_thread=50, seed=6,
                              chunk_refs=16)
        stream = spec.build()
        disk = spill_streaming_set(stream, tmp_path)
        for a, b in zip(stream.materialize(), disk.materialize()):
            assert np.array_equal(a.gaps, b.gaps)
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.writes, b.writes)
        for s, d in zip(stream, disk):
            assert (s.num_refs, s.length, s.num_writes, s.max_addr) == \
                (d.num_refs, d.length, d.num_writes, d.max_addr)

    def test_round_robin_placement(self):
        spec = StreamScenario(num_threads=10, refs_per_thread=8)
        pl = spec.round_robin_placement(4)
        assert pl.num_threads == 10 and pl.num_processors == 4
        assert pl.assignment.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_million_scenario_shape(self):
        spec = million_reference_scenario()
        assert spec.num_threads == 1024
        assert spec.total_refs >= 1_000_000
        # O(1) construction: building the set must not generate chunks.
        stream = spec.build()
        assert stream.num_threads == 1024
        assert stream.total_refs == spec.total_refs

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamScenario(num_threads=0, refs_per_thread=1)
        with pytest.raises(ValueError):
            StreamScenario(num_threads=1, refs_per_thread=1,
                           shared_fraction=1.5)
        spec = StreamScenario(num_threads=2, refs_per_thread=10,
                              chunk_refs=4)
        with pytest.raises(ValueError):
            spec.chunk(2, 0)
        with pytest.raises(ValueError):
            spec.chunk(0, 3)
