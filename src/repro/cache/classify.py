"""Classical three-C miss classification.

The paper's §1 recalls the classical model [Patterson & Hennessy]: cold
(compulsory), capacity, and conflict misses.  The standard operational
definition, which this module implements:

- **cold**: the line was never referenced before;
- **capacity**: a non-cold miss that would *also* miss in a fully-associative
  LRU cache of the same total capacity — the working set simply does not
  fit;
- **conflict**: a non-cold miss that the fully-associative cache would have
  hit — the miss exists only because of restricted set placement.

CCProf itself never computes this (it infers conflicts statistically from
RCD), but the classifier provides the ground truth our accuracy experiments
(Fig. 8) and correctness tests validate against, playing the role of the
paper's Dinero IV runs.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.trace.batch import TraceLike, as_access_stream
from repro.trace.record import MemoryAccess


class MissClass(enum.Enum):
    """Outcome classes for one cache reference."""

    HIT = "hit"
    COLD = "cold"
    CAPACITY = "capacity"
    CONFLICT = "conflict"


class _FullyAssociativeLru:
    """Fully-associative LRU cache of ``capacity_lines`` lines.

    Implemented over :class:`collections.OrderedDict` so every operation is
    O(1): membership, move-to-front, and LRU eviction.
    """

    def __init__(self, capacity_lines: int) -> None:
        self.capacity_lines = capacity_lines
        self._lines: "OrderedDict[int, None]" = OrderedDict()

    def access(self, line: int) -> bool:
        """Reference ``line``; return True on hit."""
        if line in self._lines:
            self._lines.move_to_end(line)
            return True
        if len(self._lines) >= self.capacity_lines:
            self._lines.popitem(last=False)
        self._lines[line] = None
        return False


@dataclass
class ClassificationCounts:
    """Aggregate three-C tallies, overall and per instruction pointer."""

    hits: int = 0
    cold: int = 0
    capacity: int = 0
    conflict: int = 0
    by_ip: Dict[int, Dict[MissClass, int]] = field(default_factory=dict)

    @property
    def misses(self) -> int:
        """Total misses of any class."""
        return self.cold + self.capacity + self.conflict

    @property
    def accesses(self) -> int:
        """Total references classified."""
        return self.hits + self.misses

    def conflict_fraction(self) -> float:
        """Conflict misses over total misses (0 if no misses)."""
        return self.conflict / self.misses if self.misses else 0.0

    def record(self, ip: int, outcome: MissClass) -> None:
        """Tally one classified reference."""
        if outcome is MissClass.HIT:
            self.hits += 1
        elif outcome is MissClass.COLD:
            self.cold += 1
        elif outcome is MissClass.CAPACITY:
            self.capacity += 1
        else:
            self.conflict += 1
        if ip:
            per_ip = self.by_ip.setdefault(ip, {})
            per_ip[outcome] = per_ip.get(outcome, 0) + 1


class ThreeCClassifier:
    """Classify every reference of a trace as hit/cold/capacity/conflict.

    Runs the set-associative cache and a same-capacity fully-associative
    shadow cache in lock step.
    """

    def __init__(self, geometry: CacheGeometry = CacheGeometry(), policy: str = "lru") -> None:
        self.geometry = geometry
        self.cache = SetAssociativeCache(geometry, policy=policy)
        self._shadow = _FullyAssociativeLru(geometry.num_sets * geometry.ways)
        self._seen: Set[int] = set()
        self.counts = ClassificationCounts()

    def classify(self, address: int, ip: int = 0) -> MissClass:
        """Classify one reference and update both caches."""
        line = self.geometry.line_number(address)
        real_hit = self.cache.access(address, ip).hit
        shadow_hit = self._shadow.access(line)
        if real_hit:
            outcome = MissClass.HIT
        elif line not in self._seen:
            outcome = MissClass.COLD
        elif shadow_hit:
            outcome = MissClass.CONFLICT
        else:
            outcome = MissClass.CAPACITY
        self._seen.add(line)
        self.counts.record(ip, outcome)
        return outcome

    def classify_record(self, access: MemoryAccess) -> MissClass:
        """Classify a :class:`MemoryAccess` (first line only for straddlers).

        Line-straddling accesses are rare in the strided numeric kernels this
        suite models; the first touched line carries the classification and
        remaining lines are still simulated for state fidelity.
        """
        spanned = self.geometry.lines_spanned(access.address, access.size)
        outcome = self.classify(access.address, access.ip)
        if spanned > 1:
            base = self.geometry.line_address(access.address)
            for index in range(1, spanned):
                self.classify(base + index * self.geometry.line_size, access.ip)
        return outcome

    def run_trace(self, stream: TraceLike) -> ClassificationCounts:
        """Classify a whole trace; return the tallies."""
        for access in as_access_stream(stream):
            self.classify_record(access)
        return self.counts
