"""Virtual-to-physical address translation.

The paper's footnote 1: L1 is virtually indexed (VIPT), so CCProf reads
index bits straight off the sampled virtual address; L2 and LLC are
*physically* indexed, and profiling them would require the virtual-to-
physical mapping — declared out of scope there.  This module implements
that extension: a page mapper with several allocation policies, and a
hierarchy mode where outer levels index by physical address.

The interesting systems fact this surfaces (see the ablation bench): with
4 KiB pages, a physically-indexed L2's set index takes bits *above* the
page offset, so the OS's frame-allocation policy decides whether
virtual-space conflicts survive at L2 — random frame placement acts like
page coloring and scrambles them, while huge pages preserve them exactly.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import GeometryError
from repro.trace.batch import TraceLike, as_access_stream
from repro.trace.record import MemoryAccess

#: Standard x86-64 page size.
PAGE_SIZE = 4096

#: x86-64 huge page size (2 MiB).
HUGE_PAGE_SIZE = 2 * 1024 * 1024


class FramePolicy(enum.Enum):
    """How physical frames are assigned to virtual pages."""

    IDENTITY = "identity"      # paddr == vaddr (bare-metal / debugging)
    SEQUENTIAL = "sequential"  # frames in first-touch order (fresh boot)
    RANDOM = "random"          # uniformly random frames (fragmented system)


class PageMapper:
    """Lazily maps virtual pages to physical frames.

    Args:
        policy: Frame-assignment policy.
        page_size: Bytes per page; power of two.
        physical_frames: Size of the modelled physical memory, in frames
            (bounds the random policy); defaults to 1 Mi frames = 4 GiB.
        seed: RNG seed for the random policy.
    """

    def __init__(
        self,
        policy: FramePolicy = FramePolicy.SEQUENTIAL,
        page_size: int = PAGE_SIZE,
        physical_frames: int = 1 << 20,
        seed: int = 0,
    ) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise GeometryError(f"page size must be a power of two: {page_size}")
        if physical_frames <= 0:
            raise GeometryError(f"frame count must be positive: {physical_frames}")
        self.policy = policy
        self.page_size = page_size
        self.physical_frames = physical_frames
        self._offset_mask = page_size - 1
        self._page_shift = page_size.bit_length() - 1
        self._mapping: Dict[int, int] = {}
        self._next_frame = 0
        self._used_frames: set = set()
        self._free_frames: Optional[list] = None
        self._rng = random.Random(seed)

    def frame_of(self, virtual_page: int) -> int:
        """Physical frame backing a virtual page (allocated on first use)."""
        frame = self._mapping.get(virtual_page)
        if frame is not None:
            return frame
        if self.policy is FramePolicy.IDENTITY:
            frame = virtual_page % self.physical_frames
        elif self.policy is FramePolicy.SEQUENTIAL:
            frame = self._next_frame % self.physical_frames
            self._next_frame += 1
        else:  # RANDOM: sample without replacement from the frame pool.
            frame = self._draw_random_frame()
        self._mapping[virtual_page] = frame
        return frame

    def _draw_random_frame(self) -> int:
        """Sample an unused frame uniformly.

        Rejection sampling while the pool is sparse (O(1) expected draws);
        falls back to materializing the shrinking free list once more than
        half the frames are taken, so exhaustion stays exact.
        """
        used = self._used_frames
        if self._free_frames is None and len(used) * 2 < self.physical_frames:
            while True:
                frame = self._rng.randrange(self.physical_frames)
                if frame not in used:
                    used.add(frame)
                    return frame
        if self._free_frames is None:
            self._free_frames = [
                frame for frame in range(self.physical_frames) if frame not in used
            ]
            self._rng.shuffle(self._free_frames)
        if not self._free_frames:
            raise GeometryError("physical memory exhausted (all frames mapped)")
        frame = self._free_frames.pop()
        used.add(frame)
        return frame

    def translate(self, virtual_address: int) -> int:
        """Virtual address -> physical address."""
        page = virtual_address >> self._page_shift
        offset = virtual_address & self._offset_mask
        return (self.frame_of(page) << self._page_shift) | offset

    @property
    def pages_mapped(self) -> int:
        """Number of virtual pages touched so far."""
        return len(self._mapping)

    def index_bits_below_page_offset(self, geometry: CacheGeometry) -> bool:
        """Whether a cache's index bits fit inside the page offset.

        When true (e.g. the paper's L1: offset+index = 12 bits = 4 KiB
        pages), translation cannot change the set index — the VIPT property
        CCProf relies on.
        """
        return geometry.line_size * geometry.num_sets <= self.page_size


class PhysicallyIndexedHierarchy:
    """A hierarchy whose outer levels index by physical address.

    The first level is virtually indexed (VIPT L1, like real hardware and
    the paper's model); every deeper level sees translated addresses.
    """

    def __init__(
        self,
        geometries: Sequence[CacheGeometry],
        mapper: PageMapper,
        names: Sequence[str] = (),
        policy: str = "lru",
    ) -> None:
        if not geometries:
            raise GeometryError("a hierarchy needs at least one level")
        self.names = list(names) or [f"L{i + 1}" for i in range(len(geometries))]
        self.levels = [SetAssociativeCache(g, policy=policy) for g in geometries]
        self.mapper = mapper

    def access(self, virtual_address: int, ip: int = 0) -> int:
        """Reference one address; returns the number of levels missed."""
        depth = 0
        physical_address: Optional[int] = None
        for index, cache in enumerate(self.levels):
            if index == 0:
                address = virtual_address
            else:
                if physical_address is None:
                    physical_address = self.mapper.translate(virtual_address)
                address = physical_address
            if cache.access(address, ip).hit:
                return depth
            depth += 1
        return depth

    def access_record(self, access: MemoryAccess) -> int:
        """Reference a record, splitting line straddlers."""
        geometry = self.levels[0].geometry
        spanned = geometry.lines_spanned(access.address, access.size)
        if spanned == 1:
            return self.access(access.address, access.ip)
        base = geometry.line_address(access.address)
        return max(
            self.access(base + index * geometry.line_size, access.ip)
            for index in range(spanned)
        )

    def run_trace(self, stream: TraceLike) -> Dict[str, int]:
        """Drive a trace; return per-level miss counts by level name."""
        for access in as_access_stream(stream):
            self.access_record(access)
        return {
            name: cache.stats.misses
            for name, cache in zip(self.names, self.levels)
        }
