"""Streaming traces: re-iterable chunked views of per-thread references.

A :class:`StreamingThreadTrace` carries the same identity and summary
metadata as a materialized :class:`~repro.trace.stream.ThreadTrace`
(thread id, reference count, instruction length, write count, maximum
address) but never holds its reference columns resident: consumers pull
:class:`~repro.trace.chunks.TraceChunk` slabs from a re-iterable source
— a slice view over a materialized trace (the adapter the byte-identity
suites pin), a verified on-disk spill, or a deterministic regenerating
producer.  ``docs/STREAMING.md`` spells out the memory model and the
exactness argument; the replay engines consume these traces through the
chunk cursor seam in :mod:`repro.arch.processor` / ``repro.arch.kernel``.

Both classes advertise ``streaming = True``; materialized traces
advertise ``streaming = False`` — the engines and the static analysis
branch on that flag, nothing else, so the two representations stay
interchangeable at every call site that matters.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.trace.chunks import (
    DEFAULT_CHUNK_REFS,
    ChunkStore,
    TraceChunk,
    chunk_arrays,
)
from repro.trace.stream import ThreadTrace, TraceSet
from repro.util.validate import check_non_empty, check_positive

__all__ = [
    "StreamingThreadTrace",
    "StreamingTraceSet",
    "as_streaming",
    "spill_trace_set",
]


class StreamingThreadTrace:
    """One thread's trace as a re-iterable sequence of bounded chunks.

    Args:
        thread_id: Dense thread index within the application.
        source: Zero-argument callable returning a fresh iterator of the
            thread's chunks in order (each call restarts from the first
            chunk; chunks must be contiguous and start at reference 0).
        num_refs / length / num_writes / max_addr: Summary metadata, all
            O(1) to hold and exactly what the placement layers and the
            kernel sizing logic need without a chunk pass.
    """

    streaming = True

    __slots__ = ("thread_id", "num_refs", "length", "num_writes",
                 "max_addr", "_source", "_replay_cache")

    def __init__(self, thread_id: int,
                 source: Callable[[], Iterator[TraceChunk]], *,
                 num_refs: int, length: int, num_writes: int,
                 max_addr: int) -> None:
        if thread_id < 0:
            raise ValueError(f"thread_id must be >= 0, got {thread_id}")
        self.thread_id = int(thread_id)
        self._source = source
        self.num_refs = int(num_refs)
        self.length = int(length)
        self.num_writes = int(num_writes)
        self.max_addr = int(max_addr)
        # Small derived-data memos only;
        # never per-reference arrays — those would defeat streaming.
        self._replay_cache: dict | None = None

    @property
    def num_reads(self) -> int:
        return self.num_refs - self.num_writes

    def chunks(self) -> Iterator[TraceChunk]:
        """A fresh pass over the thread's chunks, first to last."""
        return iter(self._source())

    def replay_chunks(self, block_bits: int, hit_cycles: int,
                      set_mask: int) -> Iterator[tuple]:
        """Per-chunk run-compressed replay data for the fast kernel.

        Yields ``(start, compressed, charge, block_idx)`` per chunk,
        where ``compressed`` is the chunk-local
        :class:`~repro.trace.runs.CompressedTrace` and the two derived
        arrays are the kernel's charge prefix and set-index columns.
        """
        from repro.trace.runs import compress_chunk

        for chunk in self._source():
            compressed = compress_chunk(chunk, block_bits)
            yield (chunk.start, compressed,
                   compressed.charge_prefix(hit_cycles),
                   compressed.block_index(set_mask))

    def max_block(self, block_bits: int) -> int:
        """Largest block number this thread references."""
        return self.max_addr >> block_bits

    def materialize(self) -> ThreadTrace:
        """Concatenate the chunks back into a materialized trace."""
        gaps, addrs, writes = [], [], []
        for chunk in self._source():
            gaps.append(chunk.gaps)
            addrs.append(chunk.addrs)
            writes.append(chunk.writes)
        if not gaps:
            empty = np.empty(0, dtype=np.int64)
            return ThreadTrace(self.thread_id, empty, empty.copy(),
                               np.empty(0, dtype=bool))
        return ThreadTrace(
            self.thread_id, np.concatenate(gaps), np.concatenate(addrs),
            np.concatenate(writes),
        )

    def __len__(self) -> int:
        return self.num_refs

    def __repr__(self) -> str:
        return (
            f"StreamingThreadTrace(thread_id={self.thread_id}, "
            f"refs={self.num_refs}, length={self.length})"
        )


class StreamingTraceSet:
    """All threads of one application, each a streaming trace.

    Mirrors the :class:`~repro.trace.stream.TraceSet` surface the
    placement and simulation layers consume (dense ids, lengths, totals,
    indexing), so the two set types are interchangeable everywhere the
    ``streaming`` flag is honoured.
    """

    streaming = True

    __slots__ = ("name", "threads")

    def __init__(self, name: str,
                 threads: Sequence[StreamingThreadTrace]) -> None:
        check_non_empty("threads", threads)
        for index, trace in enumerate(threads):
            if trace.thread_id != index:
                raise ValueError(
                    f"thread ids must be dense 0..n-1: position {index} "
                    f"holds thread_id {trace.thread_id}"
                )
        self.name = str(name)
        self.threads = list(threads)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def thread_lengths(self) -> np.ndarray:
        return np.array([t.length for t in self.threads], dtype=np.int64)

    @property
    def total_length(self) -> int:
        return int(self.thread_lengths.sum())

    @property
    def total_refs(self) -> int:
        return sum(t.num_refs for t in self.threads)

    def __iter__(self) -> Iterator[StreamingThreadTrace]:
        return iter(self.threads)

    def __len__(self) -> int:
        return self.num_threads

    def __getitem__(self, thread_id: int) -> StreamingThreadTrace:
        return self.threads[thread_id]

    def materialize(self) -> TraceSet:
        """Concatenate every thread back into a materialized set."""
        return TraceSet(self.name, [t.materialize() for t in self.threads])

    def __repr__(self) -> str:
        return (
            f"StreamingTraceSet(name={self.name!r}, "
            f"threads={self.num_threads}, refs={self.total_refs})"
        )


def _view_source(trace: ThreadTrace,
                 chunk_refs: int) -> Callable[[], Iterator[TraceChunk]]:
    def source() -> Iterator[TraceChunk]:
        return chunk_arrays(trace.thread_id, trace.gaps, trace.addrs,
                            trace.writes, chunk_refs)
    return source


def as_streaming(trace_set: TraceSet,
                 chunk_refs: int = DEFAULT_CHUNK_REFS) -> StreamingTraceSet:
    """The materialized→streaming adapter: chunked zero-copy views.

    The returned set replays through the streaming seam while sharing
    the original arrays, so ``as_streaming(ts)`` against ``ts`` is the
    byte-identity pin the differential suites enforce.  (The adapter
    does not reduce memory — the source set stays alive — it exists to
    run the paper suite down the streaming code path and to let grid
    cells opt into streaming without a new workload builder.)
    """
    check_positive("chunk_refs", chunk_refs)
    threads = []
    for trace in trace_set:
        max_addr = int(trace.addrs.max()) if trace.num_refs else 0
        threads.append(StreamingThreadTrace(
            trace.thread_id, _view_source(trace, chunk_refs),
            num_refs=trace.num_refs, length=trace.length,
            num_writes=trace.num_writes, max_addr=max_addr,
        ))
    return StreamingTraceSet(trace_set.name, threads)


def _store_source(store: ChunkStore, thread_id: int,
                  num_chunks: int) -> Callable[[], Iterator[TraceChunk]]:
    def source() -> Iterator[TraceChunk]:
        return store.iter_thread(thread_id, num_chunks)
    return source


def stream_from_store(
    name: str,
    store: ChunkStore,
    metadata: Sequence[dict],
) -> StreamingTraceSet:
    """Assemble a streaming set over an existing spill.

    ``metadata`` holds one dict per thread (dense order) with keys
    ``num_chunks``, ``num_refs``, ``length``, ``num_writes`` and
    ``max_addr`` — exactly what :func:`spill_trace_set` (and the
    incremental generators in :mod:`repro.workload.streaming`) record
    while writing the chunks.
    """
    threads = [
        StreamingThreadTrace(
            tid, _store_source(store, tid, int(meta["num_chunks"])),
            num_refs=int(meta["num_refs"]), length=int(meta["length"]),
            num_writes=int(meta["num_writes"]),
            max_addr=int(meta["max_addr"]),
        )
        for tid, meta in enumerate(metadata)
    ]
    return StreamingTraceSet(name, threads)


__all__.append("stream_from_store")


def spill_trace_set(
    trace_set: TraceSet,
    directory,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> StreamingTraceSet:
    """Spill a materialized set to a verified chunk store and return the
    disk-backed streaming set.  A failed commit (sick disk) raises — a
    spill that silently kept arrays resident would defeat the point."""
    check_positive("chunk_refs", chunk_refs)
    store = ChunkStore(directory)
    metadata = []
    for trace in trace_set:
        count = 0
        for index, chunk in enumerate(chunk_arrays(
                trace.thread_id, trace.gaps, trace.addrs, trace.writes,
                chunk_refs)):
            if not store.spill(chunk, index):
                raise OSError(
                    f"could not spill chunk {index} of thread "
                    f"{trace.thread_id} under {directory}"
                )
            count = index + 1
        metadata.append({
            "num_chunks": count,
            "num_refs": trace.num_refs,
            "length": trace.length,
            "num_writes": trace.num_writes,
            "max_addr": int(trace.addrs.max()) if trace.num_refs else 0,
        })
    return stream_from_store(trace_set.name, store, metadata)
