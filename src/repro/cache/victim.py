"""Victim caches.

The hardware remedies surveyed in the paper's related work (§7.1 — Collins
& Tullsen's adaptive miss buffer, Bershad's conflict avoidance) revolve
around a *victim cache*: a small fully-associative buffer that catches
lines evicted from the main cache, so a conflict-evicted line can be
recovered without a trip down the hierarchy.

This module adds one in front of the simulator so the library can answer
"how much of this kernel's miss traffic would a victim cache absorb?" —
which is, operationally, another conflict-miss detector: victim-cache hits
are precisely misses caused by recent (conflict) evictions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import GeometryError
from repro.trace.batch import TraceLike, as_access_stream


@dataclass
class VictimCacheStats:
    """Tallies of one victim-cache run."""

    accesses: int = 0
    main_hits: int = 0
    victim_hits: int = 0
    misses: int = 0

    @property
    def absorbed_fraction(self) -> float:
        """Share of would-be misses the victim buffer absorbed."""
        would_be = self.victim_hits + self.misses
        return self.victim_hits / would_be if would_be else 0.0

    @property
    def miss_ratio(self) -> float:
        """Misses (past both structures) per access."""
        return self.misses / self.accesses if self.accesses else 0.0


class VictimCachedL1:
    """A set-associative L1 backed by a small fully-associative victim
    buffer (Jouppi-style).

    Args:
        geometry: Main cache geometry.
        victim_lines: Victim buffer capacity in lines (typically 4-16).
    """

    def __init__(self, geometry: CacheGeometry = CacheGeometry(), victim_lines: int = 8) -> None:
        if victim_lines <= 0:
            raise GeometryError(f"victim buffer needs >= 1 line: {victim_lines}")
        self.geometry = geometry
        self.main = SetAssociativeCache(geometry)
        self.victim_lines = victim_lines
        self._victim: "OrderedDict[int, None]" = OrderedDict()
        self.stats = VictimCacheStats()

    def access(self, address: int, ip: int = 0) -> str:
        """Reference an address.

        Returns:
            ``"main"``, ``"victim"`` or ``"miss"`` — where the line was
            found.
        """
        self.stats.accesses += 1
        line = self.geometry.line_number(address)
        result = self.main.access(address, ip)
        if result.hit:
            self.stats.main_hits += 1
            return "main"
        # On a main miss the evicted line (if any) moves into the victim
        # buffer, and the referenced line is promoted out of it on a hit.
        if result.evicted_tag is not None:
            evicted_line = (
                result.evicted_tag << self.geometry.index_bits
            ) | result.set_index
            self._victim[evicted_line] = None
            if len(self._victim) > self.victim_lines:
                self._victim.popitem(last=False)
        if line in self._victim:
            del self._victim[line]
            self.stats.victim_hits += 1
            return "victim"
        self.stats.misses += 1
        return "miss"

    def run_trace(self, stream: TraceLike) -> VictimCacheStats:
        """Drive a trace; return the tallies."""
        for access in as_access_stream(stream):
            spanned = self.geometry.lines_spanned(access.address, access.size)
            if spanned == 1:
                self.access(access.address, access.ip)
            else:
                base = self.geometry.line_address(access.address)
                for index in range(spanned):
                    self.access(base + index * self.geometry.line_size, access.ip)
        return self.stats
