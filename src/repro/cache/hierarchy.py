"""Multi-level cache hierarchy simulation.

Table 3 of the paper reports miss reductions at L1, L2, and LLC after
padding.  This module chains set-associative levels: a reference that misses
level *i* is forwarded to level *i+1*.  The model is uniprocessor (like the
paper's ground-truth Dinero IV) with inclusive-on-fill behaviour and no
write-back traffic modelling — stores count as references at each level they
reach, which is the granularity the paper's PMU counters observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cache.geometry import (
    BROADWELL_LLC,
    PAPER_L1,
    PAPER_L2,
    SKYLAKE_LLC,
    CacheGeometry,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.trace.batch import TraceLike, as_access_stream
from repro.trace.record import MemoryAccess


@dataclass(frozen=True)
class LevelStats:
    """Summary of one level after a hierarchy run."""

    name: str
    accesses: int
    hits: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        """Misses per access at this level."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class HierarchyResult:
    """Per-level statistics for one simulated trace."""

    levels: List[LevelStats]

    def level(self, name: str) -> LevelStats:
        """Look up a level by name (e.g. ``"L1"``)."""
        for entry in self.levels:
            if entry.name == name:
                return entry
        raise KeyError(f"no cache level named {name!r}")

    def misses(self) -> List[int]:
        """Miss counts in level order."""
        return [entry.misses for entry in self.levels]


class CacheHierarchy:
    """A chain of set-associative cache levels.

    Args:
        geometries: Per-level geometries, innermost (L1) first.
        names: Level names; defaults to L1, L2, L3, ...
        policy: Replacement policy used at every level.
    """

    def __init__(
        self,
        geometries: Sequence[CacheGeometry],
        names: Sequence[str] = (),
        policy: str = "lru",
    ) -> None:
        if not geometries:
            raise ValueError("a hierarchy needs at least one level")
        if names and len(names) != len(geometries):
            raise ValueError("names and geometries must have equal length")
        self.names = list(names) or [f"L{i + 1}" for i in range(len(geometries))]
        self.levels = [SetAssociativeCache(g, policy=policy) for g in geometries]

    @classmethod
    def broadwell(cls) -> "CacheHierarchy":
        """The paper's Intel Broadwell (E7-4830v4) per-core view."""
        return cls([PAPER_L1, PAPER_L2, BROADWELL_LLC], names=["L1", "L2", "LLC"])

    @classmethod
    def skylake(cls) -> "CacheHierarchy":
        """The paper's Intel Skylake (E3-1240v5) per-core view."""
        return cls([PAPER_L1, PAPER_L2, SKYLAKE_LLC], names=["L1", "L2", "LLC"])

    def access(self, address: int, ip: int = 0) -> int:
        """Reference one address.

        Returns:
            The number of levels that missed (0 = L1 hit, ``len(levels)`` =
            the reference went to memory).
        """
        depth = 0
        for cache in self.levels:
            result = cache.access(address, ip)
            if result.hit:
                return depth
            depth += 1
        return depth

    def access_record(self, access: MemoryAccess) -> int:
        """Reference a record, splitting line straddlers; returns the
        deepest miss depth among the touched lines."""
        geometry = self.levels[0].geometry
        spanned = geometry.lines_spanned(access.address, access.size)
        if spanned == 1:
            return self.access(access.address, access.ip)
        base = geometry.line_address(access.address)
        return max(
            self.access(base + index * geometry.line_size, access.ip)
            for index in range(spanned)
        )

    def run_trace(self, stream: TraceLike) -> HierarchyResult:
        """Drive a trace through every level and summarize."""
        for access in as_access_stream(stream):
            self.access_record(access)
        return self.result()

    def result(self) -> HierarchyResult:
        """Snapshot current per-level statistics."""
        summaries = [
            LevelStats(
                name=name,
                accesses=cache.stats.accesses,
                hits=cache.stats.hits,
                misses=cache.stats.misses,
            )
            for name, cache in zip(self.names, self.levels)
        ]
        return HierarchyResult(levels=summaries)


def miss_reduction(before: HierarchyResult, after: HierarchyResult) -> List[float]:
    """Fractional per-level miss reduction between two runs.

    Positive values mean the ``after`` run misses less; this is the
    quantity Table 3 reports (e.g. "LLC reduction 52.7%").  Levels with no
    misses before report 0.0.
    """
    reductions: List[float] = []
    for level_before, level_after in zip(before.levels, after.levels):
        if level_before.misses == 0:
            reductions.append(0.0)
        else:
            delta = level_before.misses - level_after.misses
            reductions.append(delta / level_before.misses)
    return reductions
