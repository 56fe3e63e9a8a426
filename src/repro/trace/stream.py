"""Composable memory-trace streams.

Workload kernels produce iterables of :class:`~repro.trace.record.MemoryAccess`.
These helpers assemble, slice, and reshape such iterables without ever
materializing a full trace unless the caller asks for one, which keeps the
memory footprint of whole-application analysis bounded — the same reason the
paper prefers sampling over full tracing.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceBatch, iter_batches
from repro.trace.record import MemoryAccess

#: A trace stream is any iterable of memory accesses.
TraceStream = Iterable[MemoryAccess]

#: A batch stream is any iterable of columnar trace batches.
BatchStream = Iterable[TraceBatch]


def concat_traces(*streams: TraceStream) -> Iterator[MemoryAccess]:
    """Chain several trace streams end to end (program phases)."""
    return itertools.chain.from_iterable(streams)


def take(stream: TraceStream, count: int) -> Iterator[MemoryAccess]:
    """Yield at most ``count`` accesses from ``stream``."""
    if count < 0:
        raise ValueError(f"count must be non-negative: {count}")
    return itertools.islice(iter(stream), count)


def filter_by_ip(stream: TraceStream, ips: Iterable[int]) -> Iterator[MemoryAccess]:
    """Keep only accesses issued by the given instruction pointers.

    This mirrors the paper's "selectively trace and simulate hot loops":
    the simulator is pointed at the IPs the sampler flagged as hot.
    """
    wanted = frozenset(ips)
    return (access for access in stream if access.ip in wanted)


def filter_by_range(stream: TraceStream, start: int, end: int) -> Iterator[MemoryAccess]:
    """Keep only accesses whose data address falls in ``[start, end)``."""
    if end < start:
        raise ValueError(f"empty range: [{start:#x}, {end:#x})")
    return (access for access in stream if start <= access.address < end)


def filter_loads(stream: TraceStream) -> Iterator[MemoryAccess]:
    """Keep only data loads — the accesses the paper's PMU event counts."""
    return (access for access in stream if access.is_load)


def interleave_round_robin(streams: Sequence[TraceStream], chunk: int = 1) -> Iterator[MemoryAccess]:
    """Round-robin interleave several streams, ``chunk`` accesses at a time.

    Used to build simple multi-threaded reference patterns from per-thread
    kernels; exhausted streams drop out and the rest continue.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive: {chunk}")
    iterators: List[Iterator[MemoryAccess]] = [iter(s) for s in streams]
    while iterators:
        still_alive: List[Iterator[MemoryAccess]] = []
        for iterator in iterators:
            emitted = list(itertools.islice(iterator, chunk))
            if emitted:
                yield from emitted
                still_alive.append(iterator)
        iterators = still_alive


def windowed(stream: TraceStream, window: int) -> Iterator[List[MemoryAccess]]:
    """Split a stream into consecutive windows of ``window`` accesses.

    The final window may be shorter.  Useful for phase-wise analysis of
    dynamic access patterns (the workload property DProf assumes away and
    CCProf handles, §7.1).
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    iterator = iter(stream)
    while True:
        block = list(itertools.islice(iterator, window))
        if not block:
            return
        yield block


def batched(
    stream: TraceStream, size: int = DEFAULT_BATCH_SIZE
) -> Iterator[TraceBatch]:
    """Chunk a scalar stream into columnar :class:`TraceBatch` runs.

    The bridge between the composable scalar helpers above and the
    vectorized engines: ``batched(take(trace, n))`` or
    ``batched(filter_loads(trace))`` convert lazily, ``size`` accesses at
    a time, without materializing the full trace.
    """
    return iter_batches(stream, size)


def unbatched(batches: BatchStream) -> Iterator[MemoryAccess]:
    """Flatten a batch stream back into scalar accesses.

    The inverse bridge: every scalar helper composes with batched data via
    ``take(unbatched(batches), n)`` and friends.
    """
    for batch in batches:
        yield from batch.to_accesses()


def filter_batches_by_ip(
    batches: BatchStream, ips: Iterable[int]
) -> Iterator[TraceBatch]:
    """Vectorized :func:`filter_by_ip` over a batch stream.

    One ``np.isin`` per batch replaces the per-access membership test;
    batches that lose every record are dropped rather than yielded empty.
    """
    wanted = np.fromiter((int(ip) for ip in ips), dtype=np.uint64)
    for batch in batches:
        mask = np.isin(batch.ip, wanted)
        if mask.all():
            yield batch
        elif mask.any():
            yield batch[mask]


def concat_batch_streams(*streams: BatchStream) -> Iterator[TraceBatch]:
    """Chain several batch streams end to end (batch analogue of
    :func:`concat_traces`)."""
    return itertools.chain.from_iterable(streams)


def materialize(stream: TraceStream) -> List[MemoryAccess]:
    """Force a stream into a list (for repeated-pass analyses)."""
    return list(stream)


def count_accesses(stream: TraceStream) -> int:
    """Consume a stream and return its length."""
    return sum(1 for _ in stream)
