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

from typing import Iterator

import numpy as np

from repro.trace.allocator import Allocation
from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import Index, LoopBody, TraceWorkload, outer_blocks, sites

FLOAT_SIZE = 4

#: Grid extents (mimax, mjmax, mkmax); powers of two alias every plane.
DEFAULT_DIMS = (32, 32, 32)


class _Matrix4D:
    """Himeno's ``Matrix`` struct: ``m[n][i][j][k]`` with padded extents."""

    def __init__(
        self,
        allocation: Allocation,
        planes: int,
        dims: tuple,
        extents: tuple,
    ) -> None:
        self.allocation = allocation
        self.planes = planes
        self.dims = dims
        self.extents = extents

    def addr(self, n: Index, i: Index, j: Index, k: Index) -> Index:
        ei, ej, ek = self.extents
        linear = ((n * ei + i) * ej + j) * ek + k
        return self.allocation.start + linear * FLOAT_SIZE


class HimenoWorkload(TraceWorkload):
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
        self._extents = extents

        def matrix(label: str, planes: int) -> _Matrix4D:
            size = planes * extents[0] * extents[1] * extents[2] * FLOAT_SIZE
            return _Matrix4D(self.allocator.malloc(size, label), planes, dims, extents)

        # Allocation order follows himenoBMT.c's initmt().
        self.p = matrix("p", 1)
        self.bnd = matrix("bnd", 1)
        self.wrk1 = matrix("wrk1", 1)
        self.wrk2 = matrix("wrk2", 1)
        self.a = matrix("a", 4)
        self.b = matrix("b", 3)
        self.c = matrix("c", 3)

        function = self.builder.function("jacobi", file="himenoBMT.c")
        function.begin_loop(line=4, label="i")
        function.begin_loop(line=5, label="j")
        function.begin_loop(line=6, label="k")
        self.ip_body = function.add_statement(line=7, count=19)
        function.end_loop()
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, dims: tuple = DEFAULT_DIMS, iterations: int = 1) -> "HimenoWorkload":
        """Power-of-two extents: every plane aliases."""
        return cls(dims=dims, pad=0, iterations=iterations)

    @classmethod
    def padded(cls, dims: tuple = DEFAULT_DIMS, iterations: int = 1) -> "HimenoWorkload":
        """The paper's dimension padding (+1 on the two inner extents)."""
        return cls(dims=dims, pad=1, iterations=iterations)

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of i planes."""
        imax, jmax, kmax = self.dims
        a, b, c = self.a, self.b, self.c
        p, bnd, wrk1, wrk2 = self.p, self.bnd, self.wrk1, self.wrk2
        body = LoopBody(
            [(self.ip_body, AccessKind.LOAD)] * 25 + [(self.ip_body, AccessKind.STORE)],
            size=FLOAT_SIZE,
        )
        j = np.arange(1, jmax - 1)[:, None]
        k = np.arange(1, kmax - 1)
        planes = list(outer_blocks(np.arange(1, imax - 1), len(body) * j.size * k.size))
        for _it in range(self.iterations):
            for block in planes:
                i = block[:, None, None]
                yield body.batch(sites(
                    a.addr(0, i, j, k),
                    p.addr(0, i + 1, j, k),
                    a.addr(1, i, j, k),
                    p.addr(0, i, j + 1, k),
                    a.addr(2, i, j, k),
                    p.addr(0, i, j, k + 1),
                    b.addr(0, i, j, k),
                    p.addr(0, i + 1, j + 1, k),
                    p.addr(0, i - 1, j + 1, k),
                    b.addr(1, i, j, k),
                    p.addr(0, i, j + 1, k + 1),
                    p.addr(0, i, j - 1, k + 1),
                    b.addr(2, i, j, k),
                    p.addr(0, i + 1, j, k + 1),
                    p.addr(0, i - 1, j, k + 1),
                    c.addr(0, i, j, k),
                    p.addr(0, i - 1, j, k),
                    c.addr(1, i, j, k),
                    p.addr(0, i, j - 1, k),
                    c.addr(2, i, j, k),
                    p.addr(0, i, j, k - 1),
                    wrk1.addr(0, i, j, k),
                    a.addr(3, i, j, k),
                    p.addr(0, i, j, k),
                    bnd.addr(0, i, j, k),
                    wrk2.addr(0, i, j, k),  # the one store
                ))
