"""Hardware prefetcher models.

The paper motivates measurement over simulation partly because "it is
difficult to accurately, thoroughly simulate caches in modern CPU
architectures" — and the prefetcher is the classic confounder: real L1/L2
prefetchers hide most *streaming* misses, so a simulator without one
over-reports them.  Crucially, prefetching cannot hide *conflict* misses:
a prefetched line maps to the same overloaded set as its demand twin and
thrashes right along with it (or worse, pollutes).

Two standard models are provided, wrapped around the simulator:

- :class:`NextLinePrefetcher` — on a demand miss, prefetch the next
  ``degree`` sequential lines.
- :class:`StridePrefetcher` — per-IP reference-prediction table: when an
  instruction's deltas repeat, prefetch ahead at the detected stride.

The ablation bench uses these to show CCProf's conflict signal is robust
to prefetching while raw miss counts are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import GeometryError
from repro.trace.batch import TraceLike, as_access_stream


@dataclass
class PrefetchStats:
    """Counters for one prefetching-cache run.

    Attributes:
        demand_accesses: Demand references.
        demand_misses: Demand references that missed (after prefetching).
        prefetches_issued: Lines fetched speculatively.
        useful_prefetches: Prefetched lines later hit by a demand access.
    """

    demand_accesses: int = 0
    demand_misses: int = 0
    prefetches_issued: int = 0
    useful_prefetches: int = 0

    @property
    def demand_miss_ratio(self) -> float:
        """Demand misses per demand access."""
        if not self.demand_accesses:
            return 0.0
        return self.demand_misses / self.demand_accesses

    @property
    def accuracy(self) -> float:
        """Useful prefetches per prefetch issued."""
        if not self.prefetches_issued:
            return 0.0
        return self.useful_prefetches / self.prefetches_issued


class _PrefetchingCacheBase:
    """Shared machinery: demand path + speculative fills + usefulness."""

    def __init__(self, geometry: CacheGeometry, policy: str = "lru") -> None:
        self.geometry = geometry
        self.cache = SetAssociativeCache(geometry, policy=policy)
        self.stats = PrefetchStats()
        self._prefetched_lines: Set[int] = set()

    def _demand(self, address: int, ip: int) -> bool:
        """Demand reference; returns True on hit."""
        self.stats.demand_accesses += 1
        line = self.geometry.line_number(address)
        result = self.cache.access(address, ip)
        if result.hit:
            if line in self._prefetched_lines:
                self.stats.useful_prefetches += 1
                self._prefetched_lines.discard(line)
            return True
        self.stats.demand_misses += 1
        self._prefetched_lines.discard(line)  # demand-fetched now
        return False

    def _prefetch_line(self, address: int) -> None:
        line = self.geometry.line_number(address)
        result = self.cache.access(address, 0)
        if result.miss:
            self.stats.prefetches_issued += 1
            self._prefetched_lines.add(line)
            if result.evicted_tag is not None:
                evicted_line = (
                    result.evicted_tag << self.geometry.index_bits
                ) | result.set_index
                self._prefetched_lines.discard(evicted_line)

    def run_trace(self, stream: TraceLike) -> PrefetchStats:
        """Drive a trace through the prefetching cache."""
        for access in as_access_stream(stream):
            self.access(access.address, access.ip)
        return self.stats

    def access(self, address: int, ip: int = 0) -> bool:  # pragma: no cover
        raise NotImplementedError


class NextLinePrefetcher(_PrefetchingCacheBase):
    """Prefetch the next ``degree`` lines on every demand miss."""

    def __init__(
        self, geometry: CacheGeometry = CacheGeometry(), degree: int = 1, policy: str = "lru"
    ) -> None:
        super().__init__(geometry, policy)
        if degree < 1:
            raise GeometryError(f"prefetch degree must be >= 1: {degree}")
        self.degree = degree

    def access(self, address: int, ip: int = 0) -> bool:
        hit = self._demand(address, ip)
        if not hit:
            base = self.geometry.line_address(address)
            for step in range(1, self.degree + 1):
                self._prefetch_line(base + step * self.geometry.line_size)
        return hit


class StridePrefetcher(_PrefetchingCacheBase):
    """Per-IP reference-prediction-table stride prefetcher.

    Each instruction pointer tracks (last address, last stride, confidence);
    two consecutive equal deltas arm the entry, after which every access
    prefetches ``degree`` strides ahead.
    """

    def __init__(
        self,
        geometry: CacheGeometry = CacheGeometry(),
        degree: int = 2,
        table_entries: int = 256,
        policy: str = "lru",
    ) -> None:
        super().__init__(geometry, policy)
        if degree < 1:
            raise GeometryError(f"prefetch degree must be >= 1: {degree}")
        if table_entries < 1:
            raise GeometryError(f"table needs >= 1 entry: {table_entries}")
        self.degree = degree
        self.table_entries = table_entries
        # ip -> (last address, last stride, confidence)
        self._table: Dict[int, Tuple[int, int, int]] = {}

    def _update_table(self, ip: int, address: int) -> Optional[int]:
        """Returns the armed stride, or None."""
        entry = self._table.get(ip)
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Simple capacity policy: drop the oldest insertion.
                self._table.pop(next(iter(self._table)))
            self._table[ip] = (address, 0, 0)
            return None
        last_address, last_stride, confidence = entry
        stride = address - last_address
        if stride != 0 and stride == last_stride:
            confidence = min(confidence + 1, 3)
        else:
            confidence = 0
        self._table[ip] = (address, stride, confidence)
        return stride if confidence >= 1 and stride != 0 else None

    def access(self, address: int, ip: int = 0) -> bool:
        hit = self._demand(address, ip)
        stride = self._update_table(ip, address)
        if stride is not None:
            for step in range(1, self.degree + 1):
                target = address + step * stride
                if target >= 0:
                    self._prefetch_line(target)
        return hit
