"""Riken HimenoBMT — 19-point Jacobi Poisson solver (paper §6.6, Listing 5).

Per grid point the kernel reads 19 values across seven float arrays
(``a`` with 4 planes, ``b`` and ``c`` with 3 each, ``p``, ``wrk1``,
``bnd``) and writes ``wrk2``.  With power-of-two extents every array plane
is a multiple of the 4096-byte mapping period, so all ~19 same-(i,j,k)
references collapse onto the same few cache sets — and because (i,j,k)
advances every iteration, the victim set *moves* constantly: the conflict
period is tiny, which is exactly why the paper needs high-frequency
sampling (27x overhead) to catch this one.

The paper's fix pads the 1st and 2nd dimensions (here: +1 element on each
inner extent).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.trace.allocator import Allocation
from repro.workloads.base import Index, NestWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load, store

FLOAT_SIZE = 4

#: Grid extents (mimax, mjmax, mkmax); powers of two alias every plane.
DEFAULT_DIMS = (32, 32, 32)


class _Matrix4D(NamedTuple):
    """Himeno's ``Matrix`` struct: ``m[n][i][j][k]`` with padded extents."""

    allocation: Allocation
    extents: Tuple[int, int, int]
    elem_size: int = FLOAT_SIZE

    def addr(self, n: Index, i: Index, j: Index, k: Index) -> Index:
        ei, ej, ek = self.extents
        return self.allocation.start + (((n * ei + i) * ej + j) * ek + k) * self.elem_size


class HimenoWorkload(NestWorkload):
    """The Jacobi loop nest of Listing 5, original or padded.

    Args:
        dims: (imax, jmax, kmax) grid extents.
        pad: Extra elements added to the 1st and 2nd padded dimensions
            (the paper's optimization; 0 = original).
        iterations: Jacobi sweeps.
    """

    def __init__(
        self,
        dims: tuple = DEFAULT_DIMS,
        pad: int = 0,
        iterations: int = 1,
    ) -> None:
        super().__init__()
        imax, jmax, kmax = dims
        if min(imax, jmax, kmax) < 4 or iterations <= 0:
            raise ValueError("dims must be >= 4 and iterations positive")
        self.dims = dims
        self.pad = pad
        self.iterations = iterations
        self.name = f"himeno{'-padded' if pad else ''}"
        extents = (imax, jmax + pad, kmax + pad)

        def matrix(label: str, planes: int) -> _Matrix4D:
            size = planes * extents[0] * extents[1] * extents[2] * FLOAT_SIZE
            return _Matrix4D(self.allocator.malloc(size, label), extents)

        # Allocation order follows himenoBMT.c's initmt().
        self.p = p = matrix("p", 1)
        self.bnd = bnd = matrix("bnd", 1)
        self.wrk1 = wrk1 = matrix("wrk1", 1)
        self.wrk2 = wrk2 = matrix("wrk2", 1)
        self.a = a = matrix("a", 4)
        self.b = b = matrix("b", 3)
        self.c = c = matrix("c", 3)
        i = Loop(4, 1, imax - 1, label="i")
        j = Loop(5, 1, jmax - 1, label="j")
        k = Loop(6, 1, kmax - 1, label="k")
        body = Stmt(
            7,
            load(a, 0, i, j, k), load(p, 0, i + 1, j, k),
            load(a, 1, i, j, k), load(p, 0, i, j + 1, k),
            load(a, 2, i, j, k), load(p, 0, i, j, k + 1),
            load(b, 0, i, j, k), load(p, 0, i + 1, j + 1, k), load(p, 0, i - 1, j + 1, k),
            load(b, 1, i, j, k), load(p, 0, i, j + 1, k + 1), load(p, 0, i, j - 1, k + 1),
            load(b, 2, i, j, k), load(p, 0, i + 1, j, k + 1), load(p, 0, i - 1, j, k + 1),
            load(c, 0, i, j, k), load(p, 0, i - 1, j, k),
            load(c, 1, i, j, k), load(p, 0, i, j - 1, k),
            load(c, 2, i, j, k), load(p, 0, i, j, k - 1),
            load(wrk1, 0, i, j, k), load(a, 3, i, j, k), load(p, 0, i, j, k),
            load(bnd, 0, i, j, k), store(wrk2, 0, i, j, k),
            count=19,
        )
        self.nest = LoopNest(
            self.builder.function("jacobi", file="himenoBMT.c"), i(j(k(body))),
            repeat=iterations,
        )
        (self.ip_body,) = self.nest.ips

    @classmethod
    def original(cls, dims: tuple = DEFAULT_DIMS, iterations: int = 1) -> "HimenoWorkload":
        """Power-of-two extents: every plane aliases."""
        return cls(dims=dims, pad=0, iterations=iterations)

    @classmethod
    def padded(cls, dims: tuple = DEFAULT_DIMS, iterations: int = 1) -> "HimenoWorkload":
        """The paper's dimension padding (+1 on the two inner extents)."""
        return cls(dims=dims, pad=1, iterations=iterations)
