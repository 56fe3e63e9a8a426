"""Affine access descriptors: the static analog of a memory trace.

Every built-in workload's kernel is a loop nest over arrays with affine
subscripts, so its access stream is fully described — without running it —
by a base address plus one ``(stride, extent)`` pair per loop dimension.
"Theory and Practice of Finding Eviction Sets" (Vila et al.) treats
conflict groups as exactly this kind of arithmetic object over index bits;
these descriptors are what the :mod:`repro.analysis` passes do that
arithmetic on.

Descriptors deliberately know nothing about the rest of the system: no
trace, no cache, no CFG.  Workloads declare them (see
``TraceWorkload.access_patterns``), and the analysis passes consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class AccessDim:
    """One loop dimension of an affine access.

    Attributes:
        stride: Byte distance between consecutive iterations of this
            dimension (0 when the subscript does not depend on it;
            negative for descending walks).
        extent: Trip count of the dimension (>= 1).
    """

    stride: int
    extent: int

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise AnalysisError(f"dimension extent must be >= 1: {self.extent}")


@dataclass(frozen=True)
class AffineAccess:
    """One statically-declared affine memory access.

    The access touches ``base + sum(i_d * dims[d].stride)`` for every
    point of the iteration space, ``elem_size`` bytes at a time.

    Attributes:
        ip: Instruction address the access is issued from — the key that
            resolves it to a loop in the Havlak forest.
        label: Allocation label of the array it touches.
        base: Address of the first accessed element.
        elem_size: Bytes read or written per access.
        dims: Loop dimensions, outermost first.
        kind: ``"load"`` or ``"store"`` (informational).
    """

    ip: int
    label: str
    base: int
    elem_size: int
    dims: Tuple[AccessDim, ...]
    kind: str = "load"

    def __post_init__(self) -> None:
        if self.elem_size <= 0:
            raise AnalysisError(f"elem_size must be positive: {self.elem_size}")
        if self.kind not in ("load", "store"):
            raise AnalysisError(f"kind must be 'load' or 'store': {self.kind!r}")

    @property
    def trip_count(self) -> int:
        """Total static accesses: the product of all dimension extents."""
        total = 1
        for dim in self.dims:
            total *= dim.extent
        return total

    def describe(self) -> str:
        """Compact rendering, e.g. ``B[+0x8*128][+0x400*128]``."""
        parts = "".join(f"[{dim.stride:+d}B x{dim.extent}]" for dim in self.dims)
        return f"{self.label}{parts} ({self.kind})"


def affine2d(
    array: object,
    ip: int,
    subscripts: Sequence[Tuple[int, int, int]],
    kind: str = "load",
    origin: Tuple[int, int] = (0, 0),
) -> AffineAccess:
    """Describe an access ``A[row][col]`` with affine subscripts.

    Args:
        array: An ``Array2D`` (duck-typed: ``pitch``, ``elem_size``,
            ``addr``, ``allocation``).
        ip: Issuing instruction address.
        subscripts: One ``(row_coefficient, col_coefficient, extent)`` per
            loop dimension, outermost first.  Dimension ``d`` advances the
            address by ``row_coef * pitch + col_coef * elem_size`` bytes.
        kind: ``"load"`` or ``"store"``.
        origin: ``(row, col)`` of the first accessed element.
    """
    pitch = int(array.pitch)  # type: ignore[attr-defined]
    elem = int(array.elem_size)  # type: ignore[attr-defined]
    base = int(array.addr(*origin))  # type: ignore[attr-defined]
    label = str(array.allocation.label)  # type: ignore[attr-defined]
    dims = tuple(
        AccessDim(stride=row_coef * pitch + col_coef * elem, extent=extent)
        for row_coef, col_coef, extent in subscripts
    )
    return AffineAccess(ip=ip, label=label, base=base, elem_size=elem, dims=dims, kind=kind)
