"""Columnar trace batches: construction, round-trips, IO, stream adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.batch import (
    DEFAULT_BATCH_SIZE,
    TRACE_DTYPE,
    TraceBatch,
    as_batches,
    iter_batches,
    rebatch,
)
from repro.trace.record import AccessKind, MemoryAccess
from repro.trace.stream import (
    batched,
    concat_batch_streams,
    filter_batches_by_ip,
    unbatched,
)
from repro.trace.tracefile import (
    TraceReadStats,
    read_binary_trace,
    read_binary_trace_batches,
    write_binary_trace,
    write_binary_trace_batches,
)

from .conftest import make_load, make_store


def mixed_trace(count: int = 100) -> list:
    """A deterministic trace exercising every record field."""
    return [
        MemoryAccess(
            ip=0x400000 + (i % 7) * 16,
            address=0x6000_0000 + i * 24,
            kind=AccessKind.STORE if i % 3 == 0 else AccessKind.LOAD,
            size=1 + (i % 16),
            thread_id=i % 4,
        )
        for i in range(count)
    ]


class TestTraceBatch:
    def test_round_trip_preserves_every_field(self):
        trace = mixed_trace()
        batch = TraceBatch.from_accesses(trace)
        assert len(batch) == len(trace)
        assert list(batch.to_accesses()) == trace

    def test_empty_batch(self):
        batch = TraceBatch.empty()
        assert len(batch) == 0
        assert not batch
        assert list(batch.to_accesses()) == []

    def test_from_arrays_broadcasts_scalars(self):
        batch = TraceBatch.from_arrays(
            ip=[1, 2, 3], address=[64, 128, 192], kind=int(AccessKind.LOAD)
        )
        assert batch.ip.tolist() == [1, 2, 3]
        assert batch.size.tolist() == [8, 8, 8]
        assert batch.is_load.all()

    def test_slicing_and_masking(self):
        batch = TraceBatch.from_accesses(mixed_trace(10))
        head = batch[:4]
        assert len(head) == 4
        assert list(head.to_accesses()) == mixed_trace(10)[:4]
        mask = batch.is_store
        stores = batch[mask]
        assert all(access.is_store for access in stores.to_accesses())

    def test_concat(self):
        trace = mixed_trace(30)
        parts = [TraceBatch.from_accesses(trace[i : i + 10]) for i in (0, 10, 20)]
        assert list(TraceBatch.concat(parts).to_accesses()) == trace

    def test_columns_are_views_of_one_structured_array(self):
        batch = TraceBatch.from_accesses(mixed_trace(5))
        assert batch.records.dtype == TRACE_DTYPE
        assert batch.address.base is batch.records or batch.address.base is None

    def test_validate_rejects_bad_kind_and_size(self):
        records = np.zeros(2, dtype=TRACE_DTYPE)
        records["size"] = 8
        records["kind"] = 99
        with pytest.raises(TraceError):
            TraceBatch(records).validate()
        records["kind"] = int(AccessKind.LOAD)
        records["size"] = 0
        with pytest.raises(TraceError):
            TraceBatch(records).validate()
        mask = TraceBatch(records).valid_mask()
        assert mask.tolist() == [False, False]


class TestIterBatches:
    def test_chunks_and_preserves_order(self):
        trace = mixed_trace(25)
        batches = list(iter_batches(iter(trace), 10))
        assert [len(b) for b in batches] == [10, 10, 5]
        assert [a for b in batches for a in b.to_accesses()] == trace

    def test_rejects_nonpositive_size(self):
        with pytest.raises(TraceError):
            list(iter_batches(iter([]), 0))

    def test_as_batches_accepts_all_three_shapes(self):
        trace = mixed_trace(12)
        single = TraceBatch.from_accesses(trace)
        for source in (single, [single], iter(trace)):
            got = [a for b in as_batches(source, 5) for a in b.to_accesses()]
            assert got == trace

    def test_as_batches_rejects_unknown_elements(self):
        with pytest.raises(TraceError):
            list(as_batches([object()], DEFAULT_BATCH_SIZE))


def columnar_trace(count: int) -> TraceBatch:
    """A NumPy-built trace exercising every record field."""
    records = np.zeros(count, dtype=TRACE_DTYPE)
    index = np.arange(count, dtype=np.uint64)
    records["ip"] = 0x400000 + (index % 7) * 16
    records["address"] = 0x6000_0000 + index * 24
    records["kind"] = np.where(index % 3 == 0, int(AccessKind.STORE), int(AccessKind.LOAD))
    records["size"] = 1 + index % 16
    records["thread_id"] = index % 4
    return TraceBatch(records)


class TestRebatch:
    SIZE = DEFAULT_BATCH_SIZE

    def test_reslices_chunks_into_exact_batches(self):
        trace = columnar_trace(2 * self.SIZE + 5)
        # Ragged cuts, an empty chunk, one chunk spanning a boundary.
        cuts = [0, 3, 3, 4, self.SIZE - 1, self.SIZE + 7, 2 * self.SIZE + 5]
        chunks = [trace[a:b] for a, b in zip(cuts, cuts[1:])]
        batches = list(rebatch(chunks))
        assert [len(b) for b in batches] == [self.SIZE, self.SIZE, 5]
        assert TraceBatch.concat(batches) == trace

    def test_same_boundaries_as_iter_batches(self):
        trace = columnar_trace(2 * self.SIZE + 5)
        chunks = [trace[:self.SIZE - 45], trace[self.SIZE - 45:]]
        assert list(rebatch(chunks)) == list(iter_batches(trace.to_accesses()))

    def test_exact_multiple_leaves_no_short_batch(self):
        trace = columnar_trace(2 * self.SIZE)
        assert [len(b) for b in rebatch([trace[:5], trace[5:]])] == [self.SIZE] * 2

    def test_empty(self):
        assert list(rebatch([])) == []
        assert list(rebatch([TraceBatch.empty()])) == []


class TestStreamAdapters:
    def test_batched_unbatched_inverse(self):
        trace = mixed_trace(40)
        assert list(unbatched(batched(iter(trace), 7))) == trace

    def test_filter_batches_by_ip_matches_scalar_filter(self):
        trace = mixed_trace(60)
        wanted = {0x400000, 0x400010}
        scalar = [a for a in trace if a.ip in wanted]
        got = list(
            unbatched(filter_batches_by_ip(batched(iter(trace), 9), wanted))
        )
        assert got == scalar

    def test_filter_batches_drops_empty_batches(self):
        trace = [make_load(0x100, ip=0xAA)] * 5
        out = list(filter_batches_by_ip(batched(iter(trace), 2), [0xBB]))
        assert out == []

    def test_concat_batch_streams(self):
        trace = mixed_trace(18)
        first = batched(iter(trace[:9]), 4)
        second = batched(iter(trace[9:]), 4)
        assert list(unbatched(concat_batch_streams(first, second))) == trace


class TestBinaryBatchIO:
    @pytest.mark.parametrize("version", [1, 2])
    def test_cross_reader_round_trips(self, tmp_path, version):
        trace = mixed_trace(300)
        scalar_path = tmp_path / "scalar.bin"
        batch_path = tmp_path / "batch.bin"
        write_binary_trace(scalar_path, iter(trace), version=version)
        write_binary_trace_batches(
            batch_path, iter_batches(iter(trace), 64), version=version
        )
        via_batches = [
            a
            for b in read_binary_trace_batches(scalar_path)
            for a in b.to_accesses()
        ]
        via_scalar = list(read_binary_trace(batch_path))
        assert via_batches == trace
        assert via_scalar == trace

    def test_v2_reader_yields_one_batch_per_chunk(self, tmp_path):
        trace = mixed_trace(100)
        path = tmp_path / "t.bin"
        write_binary_trace_batches(path, iter_batches(iter(trace), 40))
        assert [len(b) for b in read_binary_trace_batches(path)] == [40, 40, 20]

    def test_corrupt_chunk_strict_raises_lenient_quarantines(self, tmp_path):
        trace = mixed_trace(120)
        path = tmp_path / "t.bin"
        write_binary_trace_batches(path, iter_batches(iter(trace), 40))
        blob = bytearray(path.read_bytes())
        blob[8 + 8 + 10] ^= 0xFF  # a byte inside the first chunk payload
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError):
            list(read_binary_trace_batches(path))
        batch_stats = TraceReadStats()
        got = [
            a
            for b in read_binary_trace_batches(path, strict=False, stats=batch_stats)
            for a in b.to_accesses()
        ]
        scalar_stats = TraceReadStats()
        reference = list(read_binary_trace(path, strict=False, stats=scalar_stats))
        assert got == reference == trace[40:]
        assert batch_stats.chunks_skipped == scalar_stats.chunks_skipped == 1
        assert (
            batch_stats.records_quarantined
            == scalar_stats.records_quarantined
            == 40
        )
        assert batch_stats.salvaged and scalar_stats.salvaged

    def test_size_overflow_rejected(self, tmp_path):
        batch = TraceBatch.from_arrays(ip=[1], address=[64], size=300)
        with pytest.raises(TraceError):
            write_binary_trace_batches(tmp_path / "t.bin", [batch])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceError):
            list(read_binary_trace_batches(path))

    def test_store_kinds_survive(self, tmp_path):
        trace = [make_store(0x200, size=4), make_load(0x240)]
        path = tmp_path / "t.bin"
        write_binary_trace_batches(path, [TraceBatch.from_accesses(trace)])
        (batch,) = read_binary_trace_batches(path)
        assert list(batch.to_accesses()) == trace
