"""Tests for the six case-study workloads (small configurations).

Each test asserts the *paper's shape*: the original variant suffers more L1
misses than the optimized one, and the access patterns carry the documented
conflict signatures.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.trace.batch import as_access_stream
from repro.workloads.adi import AdiWorkload
from repro.workloads.fft import Fft2dWorkload
from repro.workloads.himeno import HimenoWorkload
from repro.workloads.kripke import KripkeWorkload
from repro.workloads.nw import NeedlemanWunschWorkload
from repro.workloads.symmetrization import SymmetrizationWorkload
from repro.workloads.tinydnn import TinyDnnFcWorkload


def l1_misses(workload):
    return workload.l1_stats().misses


class TestSymmetrization:
    def test_padding_reduces_misses_substantially(self):
        original = l1_misses(SymmetrizationWorkload.original(n=128, sweeps=2))
        padded = l1_misses(SymmetrizationWorkload.padded(n=128, sweeps=2))
        assert padded < original * 0.5  # paper: up to 91.4% at L2

    def test_column_walk_is_the_culprit(self, paper_l1):
        workload = SymmetrizationWorkload.original(n=128, sweeps=1)
        cache = SetAssociativeCache(paper_l1)
        cache.run_trace(workload.trace())
        misses_by_ip = cache.stats.ip_misses
        assert misses_by_ip[workload.ip_col] > 2 * misses_by_ip[workload.ip_row]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SymmetrizationWorkload(n=0)


class TestNeedlemanWunsch:
    def test_padding_reduces_misses(self):
        original = l1_misses(NeedlemanWunschWorkload.original(n=128))
        padded = l1_misses(NeedlemanWunschWorkload.padded(n=128))
        assert padded < original

    def test_eleven_table4_loops_declared(self):
        workload = NeedlemanWunschWorkload.original(n=64)
        for line in (128, 138, 147, 159, 189, 199, 208, 220, 273, 289, 320):
            assert workload.loop_name(line) == f"needle.cpp:{line}"
        with pytest.raises(KeyError):
            workload.loop_name(999)

    def test_matrices_adjacent_on_heap(self):
        workload = NeedlemanWunschWorkload.original(n=64)
        reference = workload.allocator.by_label("reference")
        itemsets = workload.allocator.by_label("input_itemsets")
        assert itemsets.start - reference.end < 64  # alignment slack only

    def test_tile_size_constraint(self):
        with pytest.raises(ValueError, match="multiple"):
            NeedlemanWunschWorkload(n=100)


class TestAdi:
    def test_padding_reduces_misses(self):
        original = l1_misses(AdiWorkload.original(n=128))
        padded = l1_misses(AdiWorkload.padded(n=128))
        assert padded < original

    def test_power_of_two_pitch_aliases(self, paper_l1):
        workload = AdiWorkload.original(n=128)
        # 128 doubles = 1024 B pitch: rows cycle only 4 of 64 sets.
        assert workload.u.pitch == 1024
        assert workload.u.pitch * 4 % paper_l1.mapping_period == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdiWorkload(n=2)


class TestFft:
    def test_padding_reduces_misses(self):
        original = l1_misses(Fft2dWorkload.original(n=64))
        padded = l1_misses(Fft2dWorkload.padded(n=64))
        assert padded < original * 0.5

    def test_anonymous_image(self):
        workload = Fft2dWorkload.original(n=16)
        function = workload.image.function_named("mkl_fft2d")
        assert function.locations == {}

    def test_loop_names_are_anonymous_blocks(self):
        from repro.program.symbols import Symbolizer

        workload = Fft2dWorkload.original(n=16)
        info = Symbolizer(workload.image).resolve(workload.ip_col)
        assert info.loop_name.startswith("mkl_fft2d@0x")

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Fft2dWorkload(n=96)


class TestTinyDnn:
    def test_padding_reduces_misses(self):
        original = l1_misses(TinyDnnFcWorkload.original(in_size=256, out_size=128))
        padded = l1_misses(TinyDnnFcWorkload.padded(in_size=256, out_size=128))
        assert padded < original

    def test_weight_walk_dominates_misses(self, paper_l1):
        workload = TinyDnnFcWorkload.original(in_size=256, out_size=128)
        cache = SetAssociativeCache(paper_l1)
        cache.run_trace(workload.trace())
        top_ip, _count = cache.stats.top_miss_ips(1)[0]
        assert top_ip == workload.ip_mac

    def test_validation(self):
        with pytest.raises(ValueError):
            TinyDnnFcWorkload(in_size=0)


class TestKripke:
    def test_row_order_transform_reduces_misses(self):
        original = l1_misses(KripkeWorkload.original(zones=64, sweeps=1))
        optimized = l1_misses(KripkeWorkload.optimized(zones=64, sweeps=1))
        assert optimized < original * 0.5  # paper: 94.6x speedup territory

    def test_column_order_psi_stride_aliases(self, paper_l1):
        workload = KripkeWorkload.original()
        g_stride = workload.psi.addr(1, 0, 0) - workload.psi.addr(0, 0, 0)
        assert g_stride % paper_l1.mapping_period == 0

    def test_same_access_count_both_orders(self):
        original = KripkeWorkload.original(zones=16, sweeps=1)
        optimized = KripkeWorkload.optimized(zones=16, sweeps=1)
        # The transform reorders, it does not change psi work.
        assert (
            sum(1 for a in as_access_stream(original.trace()) if a.ip == original.ip_psi)
            == sum(
                1 for a in as_access_stream(optimized.trace()) if a.ip == optimized.ip_psi
            )
        )


class TestHimeno:
    def test_dimension_padding_reduces_misses(self):
        original = l1_misses(HimenoWorkload.original(dims=(16, 16, 16)))
        padded = l1_misses(HimenoWorkload.padded(dims=(16, 16, 16)))
        assert padded < original

    def test_planes_alias_without_padding(self, paper_l1):
        workload = HimenoWorkload.original(dims=(16, 32, 32))
        assert workload.a.addr(1, 0, 0, 0) - workload.a.addr(0, 0, 0, 0) == (
            16 * 32 * 32 * 4
        )
        assert (16 * 32 * 32 * 4) % paper_l1.mapping_period == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HimenoWorkload(dims=(2, 2, 2))
