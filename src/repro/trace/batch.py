"""Columnar trace batches.

The scalar trace representation — one :class:`~repro.trace.record.MemoryAccess`
object per reference — is flexible but slow: at millions of records, object
construction and per-field attribute access dominate every downstream
analysis.  A :class:`TraceBatch` stores the same five fields as parallel
NumPy arrays (one structured array, struct-of-arrays access via views), so
the hot paths — set-index/tag extraction, cache simulation, PEBS sampling,
RCD computation — can run vectorized over whole batches.

Batches interoperate with the existing iterator world in both directions:

- :meth:`TraceBatch.from_accesses` / :func:`iter_batches` convert any
  access iterable into (chunked) columnar form;
- :meth:`TraceBatch.to_accesses` / iteration yield the exact
  :class:`MemoryAccess` records back, so every scalar consumer keeps
  working on batched data (:func:`as_access_stream` takes any trace
  shape);
- :func:`rebatch` cuts the chunks a columnar generator builds into the
  same batch boundaries :func:`iter_batches` gives the scalar stream.

The scalar code paths remain the *reference semantics*; batched kernels are
required (and differentially tested) to reproduce them access-for-access.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

from repro.errors import TraceError
from repro.obs.metrics import get_registry
from repro.trace.record import AccessKind, MemoryAccess

#: Columnar record layout.  ``size`` is u2 (not u1 like the binary trace
#: format) so in-memory batches can carry accesses wider than 255 bytes.
TRACE_DTYPE = np.dtype(
    [
        ("ip", "<u8"),
        ("address", "<u8"),
        ("kind", "u1"),
        ("size", "<u2"),
        ("thread_id", "<u2"),
    ]
)

#: Default records per batch for chunked conversion.  Large enough to
#: amortize per-batch fixed costs — per-set grouping overhead falls off
#: sharply until each of the 64 sets gets a few hundred accesses per
#: batch — while keeping streaming memory bounded (~1.3 MiB of columns
#: per batch).
DEFAULT_BATCH_SIZE = 65536

_VALID_KINDS = frozenset(int(kind) for kind in AccessKind)


class TraceBatch:
    """A fixed-size run of memory accesses in columnar (NumPy) form.

    Wraps one structured array of :data:`TRACE_DTYPE`; the per-field
    properties return zero-copy column views.  Batches are value objects:
    helpers return new batches rather than mutating in place.
    """

    __slots__ = ("_records",)

    def __init__(self, records: np.ndarray) -> None:
        if records.dtype != TRACE_DTYPE:
            records = records.astype(TRACE_DTYPE, copy=False)
        self._records = records

    # -- construction --------------------------------------------------

    @classmethod
    def empty(cls) -> "TraceBatch":
        """A zero-length batch."""
        return cls(np.empty(0, dtype=TRACE_DTYPE))

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "TraceBatch":
        """Materialize an access iterable into one columnar batch."""
        records = np.fromiter(
            (
                (access.ip, access.address, int(access.kind), access.size,
                 access.thread_id)
                for access in accesses
            ),
            dtype=TRACE_DTYPE,
        )
        return cls(records)

    @classmethod
    def from_arrays(
        cls,
        ip: Sequence[int],
        address: Sequence[int],
        kind: Union[Sequence[int], int] = int(AccessKind.LOAD),
        size: Union[Sequence[int], int] = 8,
        thread_id: Union[Sequence[int], int] = 0,
    ) -> "TraceBatch":
        """Assemble a batch from parallel columns (scalars broadcast)."""
        address_column = np.asarray(address, dtype=np.uint64)
        records = np.empty(address_column.size, dtype=TRACE_DTYPE)
        records["ip"] = np.asarray(ip, dtype=np.uint64)
        records["address"] = address_column
        records["kind"] = kind
        records["size"] = size
        records["thread_id"] = thread_id
        return cls(records)

    @classmethod
    def concat(cls, batches: Iterable["TraceBatch"]) -> "TraceBatch":
        """Concatenate several batches into one."""
        arrays = [batch._records for batch in batches]
        if not arrays:
            return cls.empty()
        return cls(np.concatenate(arrays))

    # -- columns -------------------------------------------------------

    @property
    def records(self) -> np.ndarray:
        """The underlying structured array (treat as read-only)."""
        return self._records

    @property
    def ip(self) -> np.ndarray:
        """Instruction-pointer column (u8 view)."""
        return self._records["ip"]

    @property
    def address(self) -> np.ndarray:
        """Effective-address column (u8 view)."""
        return self._records["address"]

    @property
    def kind(self) -> np.ndarray:
        """Access-kind column (u1 view; :class:`AccessKind` values)."""
        return self._records["kind"]

    @property
    def size(self) -> np.ndarray:
        """Access-width column in bytes (u2 view)."""
        return self._records["size"]

    @property
    def thread_id(self) -> np.ndarray:
        """Thread-id column (u2 view)."""
        return self._records["thread_id"]

    @property
    def columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """The engine data plane's payload: ``(address, ip)`` views.

        Zero-copy views into the structured array — what batched kernels
        consume and what the sharded engine's shared-memory arena maps.
        """
        return self._records["address"], self._records["ip"]

    def copy_columns_into(self, address: np.ndarray, ip: np.ndarray) -> int:
        """Write the data-plane columns into caller-owned buffers.

        The batch→shared-view adapter: ``address``/``ip`` are typically
        views over a :class:`~repro.engine.arena.SharedTraceArena`
        segment, so this is the single copy that replaces the old
        pickle → pipe → unpickle round trip.  Buffers must hold at least
        ``len(self)`` u8 entries; returns the record count written.
        """
        count = self._records.size
        np.copyto(address[:count], self._records["address"])
        np.copyto(ip[:count], self._records["ip"])
        return count

    @property
    def is_load(self) -> np.ndarray:
        """Boolean mask of data loads (the PEBS-sampled kind)."""
        return self._records["kind"] == int(AccessKind.LOAD)

    @property
    def is_store(self) -> np.ndarray:
        """Boolean mask of data stores."""
        return self._records["kind"] == int(AccessKind.STORE)

    # -- protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._records.size

    def __bool__(self) -> bool:
        return self._records.size > 0

    def __getitem__(
        self, key: Union[int, np.integer, slice, np.ndarray]
    ) -> Union[MemoryAccess, "TraceBatch"]:
        """Row access: an int yields a :class:`MemoryAccess`; a slice or
        boolean/index array yields a sub-batch."""
        if isinstance(key, (int, np.integer)):
            return self._record_at(int(key))
        selected = self._records[key]
        if selected.ndim == 0:  # structured scalar from fancy indexing
            selected = selected.reshape(1)
        return TraceBatch(np.ascontiguousarray(selected))

    def __iter__(self) -> Iterator[MemoryAccess]:
        return self.to_accesses()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceBatch):
            return NotImplemented
        return bool(np.array_equal(self._records, other._records))

    def __repr__(self) -> str:
        return f"TraceBatch({len(self)} records)"

    def _record_at(self, index: int) -> MemoryAccess:
        row = self._records[index]
        return MemoryAccess(
            ip=int(row["ip"]),
            address=int(row["address"]),
            kind=AccessKind(int(row["kind"])),
            size=int(row["size"]),
            thread_id=int(row["thread_id"]),
        )

    # -- conversion ----------------------------------------------------

    def to_accesses(self) -> Iterator[MemoryAccess]:
        """Yield the batch back as scalar :class:`MemoryAccess` records."""
        ips = self._records["ip"].tolist()
        addresses = self._records["address"].tolist()
        kinds = self._records["kind"].tolist()
        sizes = self._records["size"].tolist()
        threads = self._records["thread_id"].tolist()
        for ip, address, kind, size, thread_id in zip(
            ips, addresses, kinds, sizes, threads
        ):
            yield MemoryAccess(
                ip=ip,
                address=address,
                kind=AccessKind(kind),
                size=size,
                thread_id=thread_id,
            )

    # -- validation ----------------------------------------------------

    def validate(self) -> "TraceBatch":
        """Vectorized analogue of :meth:`MemoryAccess.validate`.

        Addresses and IPs are unsigned by construction, so only the kind
        and size columns can be out of range.
        """
        kinds = self._records["kind"]
        if kinds.size and not np.isin(kinds, list(_VALID_KINDS)).all():
            bad = int(kinds[~np.isin(kinds, list(_VALID_KINDS))][0])
            raise TraceError(f"batch contains unknown access kind {bad}")
        sizes = self._records["size"]
        if sizes.size and int(sizes.min()) <= 0:
            raise TraceError("batch contains non-positive access size")
        return self

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of records that pass :meth:`validate` (lenient
        readers quarantine the complement instead of raising)."""
        kinds = self._records["kind"]
        return np.isin(kinds, list(_VALID_KINDS)) & (self._records["size"] > 0)


#: Any trace shape: one batch, an iterable of batches, or an iterable of
#: scalar :class:`MemoryAccess` records.  Every trace consumer accepts
#: all three (:func:`as_batches`, :func:`as_access_stream`).
TraceLike = Union[TraceBatch, Iterable]


def _observe_batch(batch: TraceBatch) -> TraceBatch:
    """Charge one yielded batch into the obs registry (per batch, never
    per access; no-ops entirely under a disabled registry)."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("trace.batch.batches").inc()
        registry.counter("trace.batch.records").inc(len(batch))
        registry.histogram("trace.batch.size").observe(len(batch))
    return batch


def iter_batches(
    stream: Iterable[MemoryAccess], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[TraceBatch]:
    """Chunk a scalar access stream into columnar batches.

    The streaming analogue of :meth:`TraceBatch.from_accesses`: at most
    ``batch_size`` records are buffered at a time, so unbounded traces
    convert in bounded memory.  The final batch may be shorter.
    """
    if batch_size <= 0:
        raise TraceError(f"batch size must be positive: {batch_size}")
    iterator = iter(stream)
    buffer: List[MemoryAccess] = []
    for access in iterator:
        buffer.append(access)
        if len(buffer) >= batch_size:
            yield _observe_batch(TraceBatch.from_accesses(buffer))
            buffer = []
    if buffer:
        yield _observe_batch(TraceBatch.from_accesses(buffer))


def rebatch(chunks: Iterable[TraceBatch]) -> Iterator[TraceBatch]:
    """Re-slice generated chunks of any length into ``DEFAULT_BATCH_SIZE`` runs.

    Columnar generators build one natural unit of a loop nest at a time
    (a run of rows, of tiles, of planes); this copies their records into
    the same batch boundaries :func:`iter_batches` gives the equivalent
    scalar stream, filling one batch at a time.  The final batch may be
    shorter.  Batches are not charged to the obs registry here:
    :func:`as_batches` does that once, when an engine consumes them.
    """
    buffer = np.empty(DEFAULT_BATCH_SIZE, dtype=TRACE_DTYPE)
    filled = 0
    for chunk in chunks:
        records = chunk.records
        taken = 0
        while taken < records.size:
            count = min(DEFAULT_BATCH_SIZE - filled, records.size - taken)
            buffer[filled:filled + count] = records[taken:taken + count]
            filled += count
            taken += count
            if filled == DEFAULT_BATCH_SIZE:
                yield TraceBatch(buffer)
                buffer = np.empty(DEFAULT_BATCH_SIZE, dtype=TRACE_DTYPE)
                filled = 0
    if filled:
        yield TraceBatch(buffer[:filled])


def as_access_stream(
    trace: TraceLike,
) -> Iterator[MemoryAccess]:
    """Normalize any trace shape into a scalar access stream.

    The inverse counterpart of :func:`as_batches`: accepts a single
    :class:`TraceBatch`, an iterable of batches, or an iterable of
    scalar accesses, and yields :class:`MemoryAccess` records — what the
    scalar reference engine consumes regardless of how the trace was
    handed over.
    """
    if isinstance(trace, TraceBatch):
        yield from trace.to_accesses()
        return
    iterator = iter(trace)
    try:
        first = next(iterator)
    except StopIteration:
        return
    if isinstance(first, TraceBatch):
        yield from first.to_accesses()
        for batch in iterator:
            yield from batch.to_accesses()
        return
    if not isinstance(first, MemoryAccess):
        raise TraceError(
            f"cannot stream trace of {type(first).__name__}; expected "
            "MemoryAccess or TraceBatch elements"
        )
    yield first
    yield from iterator


def as_batches(
    trace: TraceLike, batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[TraceBatch]:
    """Normalize any trace shape into a batch iterator.

    Accepts a single :class:`TraceBatch`, an iterable of batches, or an
    iterable of scalar accesses — the entry point batched engines use so
    callers never care which shape they hold.
    """
    if isinstance(trace, TraceBatch):
        yield _observe_batch(trace)
        return
    iterator = iter(trace)
    try:
        first = next(iterator)
    except StopIteration:
        return
    if isinstance(first, TraceBatch):
        yield _observe_batch(first)
        for batch in iterator:
            yield _observe_batch(batch)
        return
    if not isinstance(first, MemoryAccess):
        raise TraceError(
            f"cannot batch stream of {type(first).__name__}; expected "
            "MemoryAccess or TraceBatch elements"
        )

    def _chain() -> Iterator[MemoryAccess]:
        yield first
        yield from iterator

    yield from iter_batches(_chain(), batch_size)
