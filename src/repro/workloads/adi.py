"""PolyBench/C ADI — Alternating Direction Implicit solver (paper §6.2).

Listing 2 of the paper: the column sweep walks matrix ``u`` down a column
(``u[j][i]``), so consecutive references are one full row pitch apart.
With N a power of two the pitch is a multiple of the 4096-byte L1 mapping
period and every reference of the walk lands in the *same* set — the paper
measures RCD = 1 here, its most extreme conflict.  A 32-byte row pad breaks
the alignment (speedups 1.26x / 1.70x in Table 3).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.analysis.descriptors import AffineAccess, affine2d
from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import (
    Array2D, LoopBody, TraceWorkload, in_sequence, outer_blocks, sites,
)

#: PolyBench LARGE uses N=1024; scaled to keep one step ~1M accesses while
#: preserving pitch ≡ 0 (mod 4096): 256 doubles/row = 2048 B, so the column
#: walk recycles exactly 2 sets — still far beyond 8-way capacity.
DEFAULT_N = 256

#: The paper's fix: 32 bytes per row.
DEFAULT_PAD = 32


class AdiWorkload(TraceWorkload):
    """ADI, original or padded.

    Args:
        n: Grid size (power of two reproduces the conflict).
        pad_bytes: Row padding on the swept matrices (0 = original).
        steps: Time steps (each = one column sweep + one row sweep).
    """

    def __init__(self, n: int = DEFAULT_N, pad_bytes: int = 0, steps: int = 1) -> None:
        super().__init__()
        if n < 4 or steps <= 0:
            raise ValueError("need n >= 4 and steps >= 1")
        self.n = n
        self.pad_bytes = pad_bytes
        self.steps = steps
        self.name = f"adi{'-padded' if pad_bytes else ''}"
        self.u = Array2D.allocate(self.allocator, "u", n, n, 8, pad_bytes=pad_bytes)
        self.v = Array2D.allocate(self.allocator, "v", n, n, 8, pad_bytes=pad_bytes)
        self.p = Array2D.allocate(self.allocator, "p", n, n, 8, pad_bytes=pad_bytes)
        self.q = Array2D.allocate(self.allocator, "q", n, n, 8, pad_bytes=pad_bytes)
        function = self.builder.function("kernel_adi", file="adi.c")
        # Column sweep (the Listing 2 hot loop).
        function.begin_loop(line=40, label="column_sweep_i")
        function.begin_loop(line=45)
        self.ip_col = function.add_statement(line=46)
        function.end_loop()
        function.begin_loop(line=52)
        self.ip_col_back = function.add_statement(line=53)
        function.end_loop()
        function.end_loop()
        # Row sweep.
        function.begin_loop(line=60, label="row_sweep_i")
        function.begin_loop(line=65)
        self.ip_row = function.add_statement(line=66)
        function.end_loop()
        function.begin_loop(line=72)
        self.ip_row_back = function.add_statement(line=73)
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N, steps: int = 1) -> "AdiWorkload":
        """Unpadded PolyBench layout."""
        return cls(n=n, steps=steps)

    @classmethod
    def padded(cls, n: int = DEFAULT_N, steps: int = 1) -> "AdiWorkload":
        """The paper's 32-byte row pad."""
        return cls(n=n, pad_bytes=DEFAULT_PAD, steps=steps)

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of i rows of each sweep."""
        n = self.n
        u, v, p, q = self.u, self.v, self.p, self.q
        load, store = AccessKind.LOAD, AccessKind.STORE
        m = n - 2  # interior extent

        def sweep(ip: int, ip_back: int) -> LoopBody:
            """One i iteration: the forward j loop, then the back j loop."""
            return LoopBody(
                ([(ip, load)] * 3 + [(ip, store)] * 2) * m
                + ([(ip_back, load)] * 3 + [(ip_back, store)]) * m,
                size=8,
            )

        column_sweep = sweep(self.ip_col, self.ip_col_back)
        row_sweep = sweep(self.ip_row, self.ip_row_back)
        j = np.arange(1, n - 1)
        jb = j[::-1]  # back substitution runs j downward
        rows = list(outer_blocks(np.arange(1, n - 1), len(column_sweep)))
        for _step in range(self.steps):
            # Column sweep: forward substitution down each column of v/u,
            # with row-major helpers p and q, then back substitution up the
            # column of v.  Both walk a column: u[j][i], v[j][i].
            for block in rows:
                i = block[:, None]
                yield column_sweep.batch(in_sequence(
                    sites(u.addr(j, i), u.addr(j, i - 1), u.addr(j, i + 1),
                          p.addr(i, j), q.addr(i, j)),
                    sites(p.addr(i, jb), q.addr(i, jb), v.addr(jb + 1, i), v.addr(jb, i)),
                ))
            # Row sweep: same dance along rows (cache friendly direction).
            for block in rows:
                i = block[:, None]
                yield row_sweep.batch(in_sequence(
                    sites(v.addr(i, j), v.addr(i - 1, j), v.addr(i + 1, j),
                          p.addr(i, j), q.addr(i, j)),
                    sites(p.addr(i, jb), q.addr(i, jb), u.addr(i, jb + 1), u.addr(i, jb)),
                ))

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors for all four inner loops.

        Dimensions are (step, i, j) outermost-first.  Column walks declare
        ``(0, 1, ...)`` outer / ``(1, 0, ...)`` inner — one row pitch per
        inner iteration, the Listing 2 signature.  Descending j walks are
        declared ascending: the footprint and window pressure are
        direction-independent.
        """
        n, steps = self.n, self.steps
        m = n - 2  # interior extent
        u, v, p, q = self.u, self.v, self.p, self.q
        col = [(0, 0, steps), (0, 1, m), (1, 0, m)]  # column walk (j inner)
        row = [(0, 0, steps), (1, 0, m), (0, 1, m)]  # row walk (j inner)
        return [
            # Column sweep, forward substitution (adi.c:45).
            affine2d(u, self.ip_col, col, origin=(1, 1)),
            affine2d(u, self.ip_col, col, origin=(1, 0)),
            affine2d(u, self.ip_col, col, origin=(1, 2)),
            affine2d(p, self.ip_col, row, kind="store", origin=(1, 1)),
            affine2d(q, self.ip_col, row, kind="store", origin=(1, 1)),
            # Column sweep, back substitution (adi.c:52).
            affine2d(p, self.ip_col_back, row, origin=(1, 1)),
            affine2d(q, self.ip_col_back, row, origin=(1, 1)),
            affine2d(v, self.ip_col_back, col, origin=(2, 1)),
            affine2d(v, self.ip_col_back, col, kind="store", origin=(1, 1)),
            # Row sweep, forward (adi.c:65) — the cache-friendly direction.
            affine2d(v, self.ip_row, row, origin=(1, 1)),
            affine2d(v, self.ip_row, row, origin=(0, 1)),
            affine2d(v, self.ip_row, row, origin=(2, 1)),
            affine2d(p, self.ip_row, row, kind="store", origin=(1, 1)),
            affine2d(q, self.ip_row, row, kind="store", origin=(1, 1)),
            # Row sweep, back (adi.c:72).
            affine2d(p, self.ip_row_back, row, origin=(1, 1)),
            affine2d(q, self.ip_row_back, row, origin=(1, 1)),
            affine2d(u, self.ip_row_back, row, origin=(1, 2)),
            affine2d(u, self.ip_row_back, row, kind="store", origin=(1, 1)),
        ]
