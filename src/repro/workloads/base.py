"""Workload base class and array-layout helpers.

A :class:`TraceWorkload` owns three things the profiler consumes:

- ``trace()`` — the memory-access stream of the kernel, as scalar
  :class:`~repro.trace.record.MemoryAccess` records or as columnar
  :class:`~repro.trace.batch.TraceBatch` runs (the case studies build
  their batches by broadcasting over the loop nest);
- ``image`` — a program image whose CFG encodes the kernel's loop nest;
- ``allocator`` — the virtual heap holding the kernel's arrays.

A workload whose kernel is an affine loop nest subclasses
:class:`NestWorkload` and declares the nest once as a
:class:`~repro.workloads.nest.LoopNest`; ``trace()`` and
``access_patterns()`` then derive from it.

The array helpers encode layout exactly the way C does — row pitch in
bytes, optionally padded — because pitch modulo the cache mapping period is
the whole story of conflict misses.  Their address forms take a scalar
index or NumPy index arrays (which broadcast), so one expression serves a
single access and a whole loop's worth of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, HierarchyResult
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.errors import AllocationError
from repro.program.builder import ImageBuilder
from repro.program.image import ProgramImage
from repro.trace.allocator import Allocation, VirtualAllocator
from repro.trace.batch import DEFAULT_BATCH_SIZE, TRACE_DTYPE, TraceBatch
from repro.trace.record import AccessKind, MemoryAccess

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.analysis.descriptors import AffineAccess
    from repro.workloads.nest import LoopNest

#: An array index or address: a Python int, or an int64 NumPy array of them.
Index = Union[int, np.ndarray]


@dataclass(frozen=True)
class Array1D:
    """A 1-D array on the virtual heap."""

    allocation: Allocation
    elem_size: int
    length: int

    @classmethod
    def allocate(
        cls, allocator: VirtualAllocator, label: str, length: int, elem_size: int = 8
    ) -> "Array1D":
        """Allocate ``length`` elements of ``elem_size`` bytes."""
        allocation = allocator.malloc(length * elem_size, label)
        return cls(allocation=allocation, elem_size=elem_size, length=length)

    def addr(self, index: Index) -> Index:
        """Address of element ``index`` (bounds-checked, scalar or array)."""
        if isinstance(index, np.ndarray):
            if index.size and (index.min() < 0 or index.max() >= self.length):
                bad = index[(index < 0) | (index >= self.length)][0]
                raise AllocationError(
                    f"{self.allocation.label}[{bad}] out of bounds (len {self.length})"
                )
        elif not 0 <= index < self.length:
            raise AllocationError(
                f"{self.allocation.label}[{index}] out of bounds (len {self.length})"
            )
        return self.allocation.start + index * self.elem_size


@dataclass(frozen=True)
class Array2D:
    """A row-major 2-D array with optional per-row padding.

    ``pitch`` is the byte distance between consecutive rows — the quantity
    the paper's padding optimizations change.
    """

    allocation: Allocation
    elem_size: int
    rows: int
    cols: int
    pitch: int

    @classmethod
    def allocate(
        cls,
        allocator: VirtualAllocator,
        label: str,
        rows: int,
        cols: int,
        elem_size: int = 8,
        pad_bytes: int = 0,
        align: Optional[int] = None,
    ) -> "Array2D":
        """Allocate ``rows`` x ``cols`` elements, padding each row by
        ``pad_bytes`` (the paper's row-padding transformation)."""
        if pad_bytes < 0:
            raise AllocationError(f"pad_bytes must be non-negative: {pad_bytes}")
        pitch = cols * elem_size + pad_bytes
        allocation = allocator.malloc(rows * pitch, label, align=align)
        return cls(
            allocation=allocation,
            elem_size=elem_size,
            rows=rows,
            cols=cols,
            pitch=pitch,
        )

    def addr(self, row: Index, col: Index) -> Index:
        """Address of element (row, col)."""
        return self.allocation.start + row * self.pitch + col * self.elem_size

    @property
    def pad_bytes(self) -> int:
        """Bytes of padding at the end of each row."""
        return self.pitch - self.cols * self.elem_size


@dataclass(frozen=True)
class Array3D:
    """A 3-D array laid out ``[dim0][dim1][dim2]`` with padded extents.

    ``extent1`` / ``extent2`` are the *allocated* sizes of the inner two
    dimensions (>= the logical sizes); raising them is how HimenoBMT's
    "pad the 1st and 2nd dimension" optimization is expressed.
    """

    allocation: Allocation
    elem_size: int
    dim0: int
    dim1: int
    dim2: int
    extent1: int
    extent2: int

    @classmethod
    def allocate(
        cls,
        allocator: VirtualAllocator,
        label: str,
        dim0: int,
        dim1: int,
        dim2: int,
        elem_size: int = 8,
        pad1: int = 0,
        pad2: int = 0,
    ) -> "Array3D":
        """Allocate with ``pad1``/``pad2`` extra elements on the inner dims."""
        extent1 = dim1 + pad1
        extent2 = dim2 + pad2
        allocation = allocator.malloc(dim0 * extent1 * extent2 * elem_size, label)
        return cls(
            allocation=allocation,
            elem_size=elem_size,
            dim0=dim0,
            dim1=dim1,
            dim2=dim2,
            extent1=extent1,
            extent2=extent2,
        )

    def addr(self, i: Index, j: Index, k: Index) -> Index:
        """Address of element (i, j, k)."""
        linear = (i * self.extent1 + j) * self.extent2 + k
        return self.allocation.start + linear * self.elem_size

    @property
    def plane_bytes(self) -> int:
        """Bytes per dim0 slice — the stride that aliases planes."""
        return self.extent1 * self.extent2 * self.elem_size


class LoopBody:
    """The access sites of one loop-body iteration, in program order.

    The columnar generators' building block.  A generator computes every
    site's addresses for a run of iterations at once, as an
    ``(iterations, sites)`` array (see :func:`sites`), and :meth:`batch`
    lays them out iteration-major — site ``s`` of iteration ``k`` becomes
    record ``k * sites + s``, the order the scalar loop emits them in —
    with each site's ip and kind repeated per iteration.  An irregular body
    (an NW tile, an FFT line) is one long template of sites whose
    addresses are broadcast over the outer loop.
    """

    __slots__ = ("ip", "kind", "size")

    def __init__(self, sites: Sequence[Tuple[int, AccessKind]], size: int) -> None:
        self.ip = np.array([ip for ip, _ in sites], dtype=np.uint64)
        self.kind = np.array([int(kind) for _, kind in sites], dtype=np.uint8)
        self.size = size

    def __len__(self) -> int:
        return self.ip.size

    def batch(self, address: np.ndarray) -> TraceBatch:
        """The body once per iteration; ``address`` is ``(..., sites)``."""
        address = address.reshape(-1, len(self))
        records = np.empty(address.size, dtype=TRACE_DTYPE)
        rows = records.reshape(address.shape)  # a view: one row per iteration
        rows["address"] = address
        rows["ip"] = self.ip
        rows["kind"] = self.kind
        rows["size"] = self.size
        rows["thread_id"] = 0
        return TraceBatch(records)


def sites(*addresses: Index) -> np.ndarray:
    """Address columns of consecutive access sites, broadcast together and
    stacked on a new last axis: the ``(..., sites)`` shape
    :meth:`LoopBody.batch` takes."""
    return np.stack(np.broadcast_arrays(*addresses), axis=-1)


def in_sequence(*parts: npt.ArrayLike) -> np.ndarray:
    """Join loops that run one after another inside each outer iteration.

    The first axis of every part indexes the outer iterations (it
    broadcasts); the rest of each part is flattened per iteration and the
    parts are concatenated in order on the last axis.
    """
    arrays = [np.asarray(part) for part in parts]
    lead = np.broadcast_shapes(*(array.shape[:1] for array in arrays))
    return np.concatenate(
        [
            np.broadcast_to(array, lead + array.shape[1:]).reshape(lead + (-1,))
            for array in arrays
        ],
        axis=-1,
    )


def outer_blocks(values: np.ndarray, body_records: int) -> Iterator[np.ndarray]:
    """Split an outer loop's index values into runs of iterations that
    each generate about a quarter of a batch of records (at least one
    iteration per run).  A generator then holds that chunk's columns
    besides the batch :func:`~repro.trace.batch.rebatch` is filling,
    never the whole trace."""
    step = max(1, DEFAULT_BATCH_SIZE // 4 // max(1, body_records))
    for start in range(0, values.size, step):
        yield values[start:start + step]


class TraceWorkload(ABC):
    """Base class for all benchmark workloads.

    Subclasses allocate their arrays from :attr:`allocator`, declare their
    loop nest through :attr:`builder` (statement IPs drive code-centric
    attribution), and implement :meth:`trace` — or subclass
    :class:`NestWorkload`, which derives it.
    """

    #: Short identifier used in reports; subclasses override.
    name: str = "workload"

    def __init__(self) -> None:
        self.allocator = VirtualAllocator()
        self.builder = ImageBuilder()
        self._image: Optional[ProgramImage] = None

    @property
    def image(self) -> ProgramImage:
        """The program image (built lazily on first use)."""
        if self._image is None:
            self._image = self.builder.build()
        return self._image

    @abstractmethod
    def trace(self) -> Union[Iterator[MemoryAccess], Iterator[TraceBatch]]:
        """Yield the kernel's memory-access stream.

        Either shape is a trace: scalar :class:`MemoryAccess` records, or
        columnar :class:`TraceBatch` runs (:func:`~repro.trace.batch.as_batches`
        and :func:`~repro.trace.batch.as_access_stream` accept both).
        Every call starts a fresh replay of the same stream.
        """

    def access_patterns(self) -> "List[AffineAccess]":
        """Declared affine access descriptors for static analysis.

        One :class:`~repro.analysis.descriptors.AffineAccess` per access
        site, from which the static passes (``repro.analysis``) predict
        victim sets without running :meth:`trace`.  Nest workloads derive
        them from their nest; other affine workloads override this, and
        the rest — the default, no declarations — opt out of static
        prediction.
        """
        return []

    def load(self, ip: int, address: int, size: int = 8) -> MemoryAccess:
        """Convenience constructor for a load access."""
        return MemoryAccess(ip=ip, address=address, kind=AccessKind.LOAD, size=size)

    def store(self, ip: int, address: int, size: int = 8) -> MemoryAccess:
        """Convenience constructor for a store access."""
        return MemoryAccess(ip=ip, address=address, kind=AccessKind.STORE, size=size)

    def l1_stats(
        self, geometry: CacheGeometry = CacheGeometry(), policy: str = "lru"
    ) -> CacheStats:
        """Run the trace through a standalone L1; return its statistics."""
        cache = SetAssociativeCache(geometry, policy=policy)
        return cache.run_trace(self.trace())

    def hierarchy_result(self, hierarchy: Optional[CacheHierarchy] = None) -> HierarchyResult:
        """Run the trace through a full hierarchy (default: Broadwell)."""
        if hierarchy is None:
            hierarchy = CacheHierarchy.broadwell()
        return hierarchy.run_trace(self.trace())

    def access_count(self) -> int:
        """Length of the trace (consumes one full generation)."""
        return sum(
            len(item) if isinstance(item, TraceBatch) else 1 for item in self.trace()
        )


class NestWorkload(TraceWorkload):
    """A workload whose kernel is one affine
    :class:`~repro.workloads.nest.LoopNest`, which its ``__init__`` sets as
    :attr:`nest`; the trace and the access descriptors derive from it."""

    nest: LoopNest

    def trace(self) -> Iterator[TraceBatch]:
        """The nest's accesses, as exact-size batches."""
        return self.nest.trace()

    def access_patterns(self) -> List[AffineAccess]:
        """One descriptor per site of the nest."""
        return self.nest.access_patterns()
