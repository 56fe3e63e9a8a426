"""The hardware miss-classification table (MST).

Collins & Tullsen [MICRO 1999] classify misses in hardware: each cache set
remembers the tag of the line it most recently evicted; a subsequent miss
on that set whose tag matches the remembered one is a conflict miss (the
line would still be resident with more associativity).  The paper (§7.1)
notes this "relies on victim buffer that can be used to classify a subset
of conflict misses" and exists only in processor simulators — which is what
we are, so it runs here as a baseline.

The single-entry memory bounds its recall: when k > 1 lines rotate through
a set, the evicted-tag register is overwritten before the re-reference
arrives, and the conflict is misclassified.  The comparison bench
quantifies that against the full three-C ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.trace.batch import TraceLike, as_access_stream


@dataclass
class MstCounts:
    """Tallies from one MST run."""

    hits: int = 0
    conflict_misses: int = 0
    other_misses: int = 0

    @property
    def misses(self) -> int:
        """All misses."""
        return self.conflict_misses + self.other_misses

    @property
    def conflict_fraction(self) -> float:
        """Conflicts over all misses."""
        return self.conflict_misses / self.misses if self.misses else 0.0


class MissClassificationTable:
    """A set-associative cache with a per-set last-evicted-tag register."""

    def __init__(self, geometry: CacheGeometry = CacheGeometry(), entries: int = 1) -> None:
        self.geometry = geometry
        self.cache = SetAssociativeCache(geometry)
        self.entries = max(1, entries)
        # Per-set FIFO of recently evicted tags (hardware MST has 1 entry;
        # `entries` generalizes it toward a victim buffer).
        self._evicted: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        self.counts = MstCounts()

    def access(self, address: int, ip: int = 0) -> Optional[bool]:
        """Reference an address.

        Returns:
            None on a hit; True when the miss is classified conflict;
            False otherwise.
        """
        result = self.cache.access(address, ip)
        if result.hit:
            self.counts.hits += 1
            return None
        table = self._evicted[result.set_index]
        is_conflict = result.tag in table
        if is_conflict:
            self.counts.conflict_misses += 1
            table.remove(result.tag)
        else:
            self.counts.other_misses += 1
        if result.evicted_tag is not None:
            table.append(result.evicted_tag)
            if len(table) > self.entries:
                table.pop(0)
        return is_conflict

    def run_trace(self, stream: TraceLike) -> MstCounts:
        """Classify a full trace; returns the tallies."""
        for access in as_access_stream(stream):
            geometry = self.geometry
            spanned = geometry.lines_spanned(access.address, access.size)
            if spanned == 1:
                self.access(access.address, access.ip)
            else:
                base = geometry.line_address(access.address)
                for index in range(spanned):
                    self.access(base + index * geometry.line_size, access.ip)
        return self.counts
