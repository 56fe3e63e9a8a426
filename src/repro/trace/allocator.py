"""Virtual heap allocator for data-centric attribution.

CCProf preloads libmonitor to intercept ``malloc``/``free`` and records the
start and end address of every allocation; sampled conflict misses are later
mapped back to the covering allocation ("data-centric attribution",
paper §3.4).  Workloads in this reproduction allocate their arrays from a
:class:`VirtualAllocator`, which plays the role of the real heap: it hands
out non-overlapping virtual address ranges and keeps the allocation log that
the offline analyzer consults.

The allocator is deliberately simple — a bump allocator with configurable
alignment and optional inter-allocation guard gaps — because what matters for
conflict studies is the *relative layout* of arrays (their base addresses
modulo the cache-mapping period), which callers control via ``align`` and
explicit padding.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import AllocationError

#: Default allocation alignment. glibc malloc aligns to 16 bytes.
DEFAULT_ALIGNMENT = 16

#: Default base of the virtual heap.  An arbitrary page-aligned address that
#: leaves room below for the synthetic text segment used by program images.
DEFAULT_HEAP_BASE = 0x10_0000_0000


@dataclass(frozen=True)
class Allocation:
    """One live or freed allocation on the virtual heap.

    Attributes:
        start: First byte of the allocation.
        size: Size in bytes as requested by the caller.
        label: Human-readable name (e.g. ``"input_itemsets"``) used in
            data-centric reports.
        callsite_ip: Instruction pointer of the allocating call, when the
            workload models one; 0 otherwise.
        freed: Whether the range has been released.
    """

    start: int
    size: int
    label: str
    callsite_ip: int = 0
    freed: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this allocation."""
        return self.start <= address < self.end

    def offset_of(self, address: int) -> int:
        """Byte offset of ``address`` from the allocation base."""
        if not self.contains(address):
            raise AllocationError(
                f"address {address:#x} outside allocation {self.label!r} "
                f"[{self.start:#x}, {self.end:#x})"
            )
        return address - self.start


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass
class VirtualAllocator:
    """Bump allocator over a virtual address space with an allocation log.

    Args:
        base: First address handed out.
        alignment: Default alignment of every allocation.
        guard_gap: Bytes of unused space left between consecutive
            allocations (0 reproduces a tightly packed heap, which is what
            makes inter-array conflicts like Needleman-Wunsch's possible).
    """

    base: int = DEFAULT_HEAP_BASE
    alignment: int = DEFAULT_ALIGNMENT
    guard_gap: int = 0
    _cursor: int = field(init=False)
    _allocations: List[Allocation] = field(init=False, default_factory=list)
    _starts: List[int] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.base < 0:
            raise AllocationError(f"heap base must be non-negative: {self.base}")
        if self.alignment <= 0 or self.alignment & (self.alignment - 1):
            raise AllocationError(
                f"alignment must be a positive power of two: {self.alignment}"
            )
        if self.guard_gap < 0:
            raise AllocationError(f"guard gap must be non-negative: {self.guard_gap}")
        self._cursor = _align_up(self.base, self.alignment)

    def malloc(
        self,
        size: int,
        label: str,
        *,
        align: Optional[int] = None,
        callsite_ip: int = 0,
    ) -> Allocation:
        """Allocate ``size`` bytes and record the range under ``label``.

        Args:
            size: Number of bytes; must be positive.
            label: Name used by data-centric attribution.
            align: Override the allocator's default alignment.
            callsite_ip: IP of the modeled allocating call.

        Returns:
            The new :class:`Allocation`.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        alignment = align if align is not None else self.alignment
        if alignment <= 0 or alignment & (alignment - 1):
            raise AllocationError(f"alignment must be a power of two: {alignment}")
        start = _align_up(self._cursor, alignment)
        record = Allocation(start=start, size=size, label=label, callsite_ip=callsite_ip)
        self._cursor = start + size + self.guard_gap
        self._allocations.append(record)
        self._starts.append(start)
        return record

    def free(self, allocation: Allocation) -> None:
        """Mark an allocation as freed.

        The range stays in the log (CCProf keeps freed ranges so samples
        taken while the allocation was live still attribute correctly), but
        a double free is rejected.
        """
        index = self._index_of(allocation.start)
        current = self._allocations[index]
        if current.freed:
            raise AllocationError(f"double free of {allocation.label!r}")
        self._allocations[index] = Allocation(
            start=current.start,
            size=current.size,
            label=current.label,
            callsite_ip=current.callsite_ip,
            freed=True,
        )

    def _index_of(self, start: int) -> int:
        index = bisect.bisect_left(self._starts, start)
        if index == len(self._starts) or self._starts[index] != start:
            raise AllocationError(f"no allocation starting at {start:#x}")
        return index

    def find(self, address: int) -> Optional[Allocation]:
        """Return the allocation covering ``address``, or None.

        Freed allocations still resolve, matching CCProf's post-mortem
        attribution of samples captured before the free.
        """
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        candidate = self._allocations[index]
        return candidate if candidate.contains(address) else None

    def by_label(self, label: str) -> Allocation:
        """Return the first allocation with the given label."""
        for allocation in self._allocations:
            if allocation.label == label:
                return allocation
        raise AllocationError(f"no allocation labelled {label!r}")

    @property
    def allocations(self) -> List[Allocation]:
        """All allocations in allocation order (copies the log)."""
        return list(self._allocations)

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out, excluding alignment slack and guards."""
        return sum(a.size for a in self._allocations)

    def __iter__(self) -> Iterator[Allocation]:
        return iter(self._allocations)

    def __len__(self) -> int:
        return len(self._allocations)
