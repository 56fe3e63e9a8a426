"""Tests for repro.cache.set_assoc."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.trace.synthetic import zipf_trace
from tests.conftest import make_load


class TestBasics:
    def test_first_access_is_cold_miss(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        result = cache.access(0x1000)
        assert result.miss and result.cold

    def test_second_access_hits(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0x1000)
        assert cache.access(0x1000).hit

    def test_same_line_different_offset_hits(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0x1000)
        assert cache.access(0x1030).hit

    def test_contains(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0x1000)
        assert cache.contains(0x1008)
        assert not cache.contains(0x2000)

    def test_reset_flushes(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0x1000)
        cache.reset()
        assert not cache.contains(0x1000)
        assert cache.stats.accesses == 0

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_reset_cache_equals_fresh_one(self, paper_l1, policy):
        """reset() keeps the seed and clears all state, batched included."""
        trace = list(zipf_trace(20_000, 2048, seed=7))
        fresh = SetAssociativeCache(paper_l1, policy=policy, seed=5)
        expected = [fresh.access(a.address).hit for a in trace]
        cache = SetAssociativeCache(paper_l1, policy=policy, seed=5)
        cache.run_trace_batched(iter(trace), 1000, split_lines=False)
        cache.reset()
        assert [cache.access(a.address).hit for a in trace] == expected
        assert cache.stats.as_dict() == fresh.stats.as_dict()


class TestConflictEviction:
    def test_n_plus_one_lines_in_one_set_evict(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        period = paper_l1.mapping_period
        # Fill all 8 ways of set 0, then a 9th line evicts the LRU (first).
        for i in range(9):
            cache.access(i * period)
        result = cache.access(0)  # first line was evicted
        assert result.miss and not result.cold

    def test_exactly_n_ways_all_hit_on_reuse(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        period = paper_l1.mapping_period
        for i in range(8):
            cache.access(i * period)
        for i in range(8):
            assert cache.access(i * period).hit

    def test_eviction_reports_evicted_tag(self, tiny_cache):
        cache = SetAssociativeCache(tiny_cache)
        period = tiny_cache.mapping_period
        cache.access(0)
        cache.access(period)
        result = cache.access(2 * period)
        assert result.evicted_tag == tiny_cache.tag(0)

    def test_different_sets_do_not_interfere(self, tiny_cache):
        cache = SetAssociativeCache(tiny_cache)
        for set_index in range(tiny_cache.num_sets):
            cache.access(set_index * tiny_cache.line_size)
        assert all(
            cache.access(s * tiny_cache.line_size).hit
            for s in range(tiny_cache.num_sets)
        )


class TestLruOrdering:
    def test_lru_evicts_least_recent(self, tiny_cache):
        cache = SetAssociativeCache(tiny_cache, policy="lru")
        period = tiny_cache.mapping_period
        cache.access(0)           # A
        cache.access(period)      # B (set full: 2 ways)
        cache.access(0)           # touch A -> B is LRU
        cache.access(2 * period)  # evicts B
        assert cache.contains(0)
        assert not cache.contains(period)

    def test_fifo_ignores_touch(self, tiny_cache):
        cache = SetAssociativeCache(tiny_cache, policy="fifo")
        period = tiny_cache.mapping_period
        cache.access(0)
        cache.access(period)
        cache.access(0)           # touch does not refresh under FIFO
        cache.access(2 * period)  # evicts the oldest fill: A
        assert not cache.contains(0)
        assert cache.contains(period)


class TestPolicies:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_all_policies_track_hits(self, paper_l1, policy):
        cache = SetAssociativeCache(paper_l1, policy=policy)
        cache.access(0x1000)
        assert cache.access(0x1000).hit

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_capacity_never_exceeded(self, tiny_cache, policy):
        cache = SetAssociativeCache(tiny_cache, policy=policy)
        for i in range(100):
            cache.access(i * tiny_cache.line_size)
        for set_index in range(tiny_cache.num_sets):
            assert len(cache.resident_tags(set_index)) <= tiny_cache.ways


class TestStatsCollection:
    def test_counts_add_up(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        for i in range(10):
            cache.access(i * 64)
        for i in range(10):
            cache.access(i * 64)
        stats = cache.stats
        assert stats.accesses == 20
        assert stats.misses == 10 and stats.hits == 10
        assert stats.cold_misses == 10

    def test_per_set_misses(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0)      # set 0
        cache.access(64)     # set 1
        cache.access(64)     # hit
        assert cache.stats.set_misses[0] == 1
        assert cache.stats.set_misses[1] == 1

    def test_ip_attribution(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        cache.access(0, ip=0xAA)
        cache.access(0, ip=0xAA)  # hit: not counted
        cache.access(4096, ip=0xBB)
        assert cache.stats.ip_misses[0xAA] == 1
        assert cache.stats.ip_misses[0xBB] == 1


class TestRecordInterface:
    def test_straddling_record_touches_two_lines(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        results = cache.access_record(make_load(60, size=8))
        assert len(results) == 2

    def test_run_trace_returns_stats(self, paper_l1):
        cache = SetAssociativeCache(paper_l1)
        stats = cache.run_trace([make_load(i * 64) for i in range(5)])
        assert stats.accesses == 5 and stats.misses == 5
