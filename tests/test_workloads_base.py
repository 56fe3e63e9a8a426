"""Tests for repro.workloads.base."""

import numpy as np
import pytest

from repro.baselines.mst import MissClassificationTable
from repro.cache.classify import ThreeCClassifier
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetch import NextLinePrefetcher
from repro.cache.reuse import reuse_distances
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.translation import PageMapper, PhysicallyIndexedHierarchy
from repro.cache.victim import VictimCachedL1
from repro.core.exact import ExactRcdMeasurer
from repro.errors import AllocationError
from repro.pmu.multithread import MultiThreadMonitor
from repro.pmu.periods import FixedPeriod
from repro.pmu.sampler import AddressSampler
from repro.program.symbols import Symbolizer
from repro.trace.allocator import VirtualAllocator
from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceBatch, as_access_stream
from repro.trace.record import AccessKind
from repro.trace.tracefile import read_binary_trace, write_binary_trace, write_dinero_trace
from repro.workloads.base import (
    Array1D, Array2D, Array3D, LoopBody, TraceWorkload, in_sequence, outer_blocks, sites,
)


class TestArray1D:
    def test_addressing(self, allocator):
        array = Array1D.allocate(allocator, "v", length=10, elem_size=8)
        assert array.addr(0) == array.allocation.start
        assert array.addr(3) == array.allocation.start + 24

    def test_bounds_checked(self, allocator):
        array = Array1D.allocate(allocator, "v", length=10)
        with pytest.raises(AllocationError):
            array.addr(10)
        with pytest.raises(AllocationError):
            array.addr(-1)

    def test_index_arrays(self, allocator):
        array = Array1D.allocate(allocator, "v", length=10, elem_size=4)
        index = np.arange(10)
        assert array.addr(index).tolist() == [array.addr(i) for i in range(10)]
        with pytest.raises(AllocationError, match=r"v\[10\]"):
            array.addr(np.arange(11))
        with pytest.raises(AllocationError, match=r"v\[-1\]"):
            array.addr(np.array([-1, 0]))


class TestArray2D:
    def test_row_major_addressing(self, allocator):
        array = Array2D.allocate(allocator, "m", rows=4, cols=8, elem_size=8)
        assert array.pitch == 64
        assert array.addr(1, 0) - array.addr(0, 0) == 64
        assert array.addr(0, 1) - array.addr(0, 0) == 8

    def test_padding_widens_pitch(self, allocator):
        array = Array2D.allocate(allocator, "m", rows=4, cols=8, elem_size=8, pad_bytes=32)
        assert array.pitch == 96
        assert array.pad_bytes == 32

    def test_allocation_size_includes_padding(self, allocator):
        array = Array2D.allocate(allocator, "m", rows=4, cols=8, elem_size=8, pad_bytes=32)
        assert array.allocation.size == 4 * 96

    def test_negative_pad_rejected(self, allocator):
        with pytest.raises(AllocationError):
            Array2D.allocate(allocator, "m", rows=2, cols=2, pad_bytes=-1)

    def test_label_recorded(self, allocator):
        array = Array2D.allocate(allocator, "reference", rows=2, cols=2)
        assert allocator.find(array.addr(1, 1)).label == "reference"


class TestArray3D:
    def test_linearization(self, allocator):
        array = Array3D.allocate(allocator, "t", dim0=2, dim1=3, dim2=4, elem_size=8)
        base = array.allocation.start
        assert array.addr(0, 0, 1) - base == 8
        assert array.addr(0, 1, 0) - base == 4 * 8
        assert array.addr(1, 0, 0) - base == 3 * 4 * 8

    def test_dim_padding_changes_plane_stride(self, allocator):
        plain = Array3D.allocate(allocator, "a", dim0=4, dim1=8, dim2=8, elem_size=4)
        padded = Array3D.allocate(
            allocator, "b", dim0=4, dim1=8, dim2=8, elem_size=4, pad1=1, pad2=1
        )
        assert padded.plane_bytes > plain.plane_bytes
        assert plain.plane_bytes == 8 * 8 * 4
        assert padded.plane_bytes == 9 * 9 * 4


class TestWorkloadHelpers:
    def test_l1_stats_and_access_count_agree(self):
        from repro.workloads.symmetrization import SymmetrizationWorkload

        workload = SymmetrizationWorkload(n=16, sweeps=1)
        stats = workload.l1_stats()
        assert stats.accesses == workload.access_count()

    def test_image_is_lazy_and_cached(self):
        from repro.workloads.symmetrization import SymmetrizationWorkload

        workload = SymmetrizationWorkload(n=16)
        assert workload.image is workload.image

    def test_trace_is_replayable(self):
        from repro.workloads.symmetrization import SymmetrizationWorkload

        workload = SymmetrizationWorkload(n=8, sweeps=1)
        first = list(workload.trace())
        second = list(workload.trace())
        assert first == second

    def test_hierarchy_result_default_broadwell(self):
        from repro.workloads.symmetrization import SymmetrizationWorkload

        result = SymmetrizationWorkload(n=16, sweeps=1).hierarchy_result()
        assert [level.name for level in result.levels] == ["L1", "L2", "LLC"]


class TestColumnarBuilders:
    def test_loop_body_lays_out_iteration_major(self):
        body = LoopBody([(1, AccessKind.LOAD), (2, AccessKind.STORE)], size=4)
        i = np.arange(3)
        batch = body.batch(sites(100 + i, 200 + i))
        assert batch.address.tolist() == [100, 200, 101, 201, 102, 202]
        assert batch.ip.tolist() == [1, 2] * 3
        assert batch.kind.tolist() == [0, 1] * 3
        assert set(batch.size.tolist()) == {4}

    def test_sites_broadcast_scalars_and_arrays(self):
        columns = sites(np.arange(2)[:, None], np.arange(3), 7)
        assert columns.shape == (2, 3, 3)
        assert columns[1, 2].tolist() == [1, 2, 7]

    def test_in_sequence_joins_inner_loops_per_iteration(self):
        first = np.array([[1], [2]])            # one site per outer iteration
        second = np.array([[[10, 11], [12, 13]]])  # shared by both iterations
        assert in_sequence(first, second).tolist() == [
            [1, 10, 11, 12, 13],
            [2, 10, 11, 12, 13],
        ]

    def test_outer_blocks_cover_the_loop_in_order(self):
        values = np.arange(10)
        blocks = list(outer_blocks(values, DEFAULT_BATCH_SIZE // 16))
        assert [block.tolist() for block in blocks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        # A body longer than a batch still advances one value at a time.
        assert len(list(outer_blocks(values, 10 * DEFAULT_BATCH_SIZE))) == 10


class _BatchWalk(TraceWorkload):
    """A column walk whose ``trace()`` yields :class:`TraceBatch` runs, the
    shape the case studies generate."""

    name = "batch-walk"

    def __init__(self) -> None:
        super().__init__()
        # A 4096-byte pitch: every row of a column maps to one set.
        self.matrix = Array2D.allocate(
            self.allocator, "m", rows=24, cols=16, pad_bytes=4096 - 16 * 8
        )
        function = self.builder.function("walk", file="walk.c")
        function.begin_loop(line=1)
        self.ip = function.add_statement(line=2)
        function.end_loop()
        function.finish()

    def trace(self):
        rows = np.arange(self.matrix.rows)
        for _sweep in range(2):
            for col in range(self.matrix.cols):
                yield TraceBatch.from_arrays(
                    ip=np.full(rows.size, self.ip),
                    address=self.matrix.addr(rows, col),
                    kind=np.where(rows % 4 == 3, int(AccessKind.STORE), int(AccessKind.LOAD)),
                    size=8,
                )


class TestBatchYieldingWorkload:
    """Every trace consumer takes a batch-yielding trace as it takes the
    equivalent scalar stream."""

    @pytest.fixture
    def walk(self):
        return _BatchWalk()

    @pytest.fixture
    def records(self, walk):
        return list(as_access_stream(walk.trace()))

    def test_access_count_counts_records(self, walk):
        assert walk.access_count() == 2 * 24 * 16

    def test_base_helpers(self, walk, records):
        assert walk.l1_stats() == SetAssociativeCache(CacheGeometry()).run_trace(records)
        assert walk.hierarchy_result() == CacheHierarchy.broadwell().run_trace(records)
        assert walk.l1_stats().misses > 0

    def test_exact_measurer(self, walk, records):
        batched = ExactRcdMeasurer().run_workload(walk)
        scalar = ExactRcdMeasurer(symbolizer=Symbolizer(walk.image)).run(records)
        assert batched == scalar
        assert batched.total_accesses == len(records)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SetAssociativeCache(CacheGeometry()),
            CacheHierarchy.broadwell,
            lambda: ThreeCClassifier(CacheGeometry()),
            lambda: VictimCachedL1(CacheGeometry()),
            lambda: NextLinePrefetcher(CacheGeometry()),
            lambda: PhysicallyIndexedHierarchy(
                [CacheGeometry(), CacheGeometry(num_sets=512)], PageMapper()
            ),
            lambda: MissClassificationTable(CacheGeometry()),
        ],
        ids=["l1", "hierarchy", "three-c", "victim", "prefetch", "physical", "mst"],
    )
    def test_run_trace_entry_points(self, walk, records, make):
        assert make().run_trace(walk.trace()) == make().run_trace(records)

    def test_sampler_entry_points(self, walk, records):
        def sampler():
            return AddressSampler(CacheGeometry(), period=FixedPeriod(3), seed=1)

        batched, scalar = sampler().run(walk.trace()), sampler().run(records)
        assert batched.samples == scalar.samples
        assert batched.total_accesses == scalar.total_accesses == len(records)
        (result, events), (_, scalar_events) = (
            sampler().run_with_trace_of_events(walk.trace()),
            sampler().run_with_trace_of_events(records),
        )
        assert events == scalar_events and result.samples == scalar.samples

    def test_multithread_monitor(self, walk, records):
        monitor = MultiThreadMonitor(period=FixedPeriod(3))
        batched = monitor.profile({0: walk.trace(), 1: walk.trace()}, core_groups=[[0, 1]])
        scalar = monitor.profile({0: records, 1: records}, core_groups=[[0, 1]])
        assert batched.merged().samples == scalar.merged().samples

    def test_reuse_distances(self, walk, records):
        assert reuse_distances(walk.trace()) == reuse_distances(records)

    def test_trace_writers(self, walk, records, tmp_path):
        assert write_dinero_trace(tmp_path / "a.din", walk.trace()) == len(records)
        write_dinero_trace(tmp_path / "b.din", records)
        assert (tmp_path / "a.din").read_bytes() == (tmp_path / "b.din").read_bytes()
        assert write_binary_trace(tmp_path / "a.bin", walk.trace()) == len(records)
        assert list(read_binary_trace(tmp_path / "a.bin")) == records
