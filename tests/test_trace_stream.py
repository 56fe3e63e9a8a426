"""Tests for repro.trace.stream."""

import pytest

from repro.trace.stream import (
    concat_traces,
    count_accesses,
    filter_by_ip,
    filter_by_range,
    filter_loads,
    interleave_round_robin,
    materialize,
    take,
    windowed,
)
from tests.conftest import make_load, make_store


def addresses(stream):
    return [access.address for access in stream]


class TestConcatAndTake:
    def test_concat_preserves_order(self):
        first = [make_load(1), make_load(2)]
        second = [make_load(3)]
        assert addresses(concat_traces(first, second)) == [1, 2, 3]

    def test_take_limits(self):
        stream = [make_load(i) for i in range(10)]
        assert addresses(take(stream, 3)) == [0, 1, 2]

    def test_take_beyond_length(self):
        assert addresses(take([make_load(1)], 5)) == [1]

    def test_take_negative_raises(self):
        with pytest.raises(ValueError):
            list(take([], -1))


class TestFilters:
    def test_filter_by_ip(self):
        stream = [make_load(1, ip=10), make_load(2, ip=20), make_load(3, ip=10)]
        assert addresses(filter_by_ip(stream, [10])) == [1, 3]

    def test_filter_by_range(self):
        stream = [make_load(a) for a in (5, 10, 15, 20)]
        assert addresses(filter_by_range(stream, 10, 20)) == [10, 15]

    def test_filter_by_range_empty_raises(self):
        with pytest.raises(ValueError):
            list(filter_by_range([], 10, 5))

    def test_filter_loads_drops_stores(self):
        stream = [make_load(1), make_store(2), make_load(3)]
        assert addresses(filter_loads(stream)) == [1, 3]


class TestInterleave:
    def test_round_robin_chunk1(self):
        a = [make_load(i) for i in (1, 2)]
        b = [make_load(i) for i in (10, 20)]
        assert addresses(interleave_round_robin([a, b])) == [1, 10, 2, 20]

    def test_round_robin_chunked(self):
        a = [make_load(i) for i in (1, 2, 3, 4)]
        b = [make_load(i) for i in (10, 20)]
        result = addresses(interleave_round_robin([a, b], chunk=2))
        assert result == [1, 2, 10, 20, 3, 4]

    def test_uneven_streams_drain(self):
        a = [make_load(1)]
        b = [make_load(i) for i in (10, 20, 30)]
        assert sorted(addresses(interleave_round_robin([a, b]))) == [1, 10, 20, 30]

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            list(interleave_round_robin([[]], chunk=0))


class TestWindowed:
    def test_even_windows(self):
        stream = [make_load(i) for i in range(6)]
        windows = list(windowed(stream, 2))
        assert [len(w) for w in windows] == [2, 2, 2]

    def test_ragged_tail(self):
        stream = [make_load(i) for i in range(5)]
        windows = list(windowed(stream, 2))
        assert [len(w) for w in windows] == [2, 2, 1]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            list(windowed([], 0))


class TestUtilities:
    def test_materialize_and_count(self):
        stream = (make_load(i) for i in range(4))
        materialized = materialize(stream)
        assert len(materialized) == 4
        assert count_accesses(iter(materialized)) == 4
