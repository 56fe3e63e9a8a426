"""Reuse-distance analysis.

The classical capacity-miss model the paper builds on (§1, citing Beyls &
D'Hollander): the *reuse distance* of a reference is the number of distinct
cache lines touched between the previous access to the same line and this
one.  Under fully-associative LRU, a reference hits iff its reuse distance
is smaller than the cache's line capacity, so the reuse-distance histogram
of a trace predicts the capacity miss ratio of *every* cache size at once.

Conflict misses are exactly the misses this model cannot explain — a
reference with a short reuse distance that still misses in the
set-associative cache — which is the gap CCProf's RCD metric targets.

The computation uses the standard O(N log M) algorithm: a Fenwick tree over
time positions counts distinct lines since last touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cache.geometry import CacheGeometry
from repro.errors import AnalysisError
from repro.trace.batch import TraceLike, as_access_stream

#: Reuse distance reported for first touches (cold references).
INFINITE = -1


class _FenwickTree:
    """Binary indexed tree over time slots, for distinct-element counting."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self.size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of elements in [0, index]."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, low: int, high: int) -> int:
        """Sum of elements in [low, high]."""
        if low > high:
            return 0
        return self.prefix_sum(high) - (self.prefix_sum(low - 1) if low else 0)


@dataclass
class ReuseProfile:
    """Reuse-distance histogram of one trace.

    Attributes:
        histogram: distance -> reference count; cold references are under
            :data:`INFINITE`.
        total: Total line-granular references analyzed.
    """

    histogram: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    @property
    def cold_references(self) -> int:
        """First touches (infinite reuse distance)."""
        return self.histogram.get(INFINITE, 0)

    def miss_ratio_for_capacity(self, capacity_lines: int) -> float:
        """Predicted fully-associative LRU miss ratio at a line capacity.

        A reference misses iff its reuse distance >= capacity (cold
        references always miss).
        """
        if capacity_lines <= 0:
            raise AnalysisError(f"capacity must be positive: {capacity_lines}")
        if not self.total:
            return 0.0
        misses = self.cold_references
        misses += sum(
            count
            for distance, count in self.histogram.items()
            if distance != INFINITE and distance >= capacity_lines
        )
        return misses / self.total

    def miss_ratio_curve(self, capacities: Iterable[int]) -> List[tuple]:
        """(capacity, predicted miss ratio) across cache sizes."""
        return [(c, self.miss_ratio_for_capacity(c)) for c in capacities]

    def mean_finite_distance(self) -> float:
        """Mean reuse distance over non-cold references."""
        finite = [
            (distance, count)
            for distance, count in self.histogram.items()
            if distance != INFINITE
        ]
        total = sum(count for _, count in finite)
        if not total:
            raise AnalysisError("no finite reuse distances")
        return sum(distance * count for distance, count in finite) / total


def reuse_distances(
    stream: TraceLike,
    geometry: Optional[CacheGeometry] = None,
    *,
    max_references: int = 1 << 22,
) -> ReuseProfile:
    """Compute the reuse-distance histogram of a trace at line granularity.

    Args:
        stream: The memory accesses (line-aligned via ``geometry``).
        geometry: Supplies the line size (default: the paper's 64 B).
        max_references: Safety cap on trace length (the Fenwick tree is
            sized by it).

    Returns:
        The :class:`ReuseProfile`.
    """
    geometry = geometry or CacheGeometry()
    lines = [
        geometry.line_number(access.address) for access in as_access_stream(stream)
    ]
    if len(lines) > max_references:
        raise AnalysisError(
            f"trace of {len(lines)} references exceeds max_references="
            f"{max_references}"
        )
    profile = ReuseProfile()
    last_position: Dict[int, int] = {}
    tree = _FenwickTree(len(lines))
    for position, line in enumerate(lines):
        previous = last_position.get(line)
        if previous is None:
            distance = INFINITE
        else:
            # Distinct lines touched strictly between the two accesses:
            # lines whose *last* touch falls in (previous, position).
            distance = tree.range_sum(previous + 1, position - 1)
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[line] = position
        profile.histogram[distance] = profile.histogram.get(distance, 0) + 1
        profile.total += 1
    return profile


def conflict_gap(
    stream_factory,
    geometry: CacheGeometry = CacheGeometry(),
) -> Dict[str, float]:
    """Quantify the conflict gap: measured vs capacity-model miss ratio.

    Runs the trace twice — once through the set-associative simulator, once
    through reuse-distance analysis — and reports both miss ratios.  The
    excess of the measured ratio over the capacity-model prediction is the
    conflict-miss mass the reuse-distance model cannot see (the paper's
    motivation for RCD).

    Args:
        stream_factory: Zero-argument callable producing a fresh trace.
        geometry: Cache geometry to measure against.
    """
    from repro.cache.set_assoc import SetAssociativeCache

    cache = SetAssociativeCache(geometry)
    stats = cache.run_trace(stream_factory())
    profile = reuse_distances(stream_factory(), geometry)
    capacity_lines = geometry.num_sets * geometry.ways
    predicted = profile.miss_ratio_for_capacity(capacity_lines)
    measured = stats.miss_ratio
    return {
        "measured_miss_ratio": measured,
        "capacity_model_miss_ratio": predicted,
        "conflict_gap": measured - predicted,
    }
