"""The symmetrization kernel of Figure 2 (paper §2.1).

    for (i = 0; i < N; i++)
      for (j = 0; j < N; j++)
        A[i][j] = 0.5 * (A[i][j] + A[j][i]);

On a 128x128 matrix of doubles, a row is 1024 B = 16 lines, so rows recycle
the 64 L1 sets every 4 rows: the column walk ``A[j][i]`` hammers only 4
sets (Figure 2-b).  A 64-byte pad per row shifts each row's mapping by one
set (Figure 2-c), spreading the column walk across all 64 sets; the paper
measures up to 91.4% fewer L2 misses from this pad.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.analysis.descriptors import AffineAccess, affine2d
from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import Array2D, LoopBody, TraceWorkload, outer_blocks, sites

#: The paper's matrix order.
DEFAULT_N = 128

#: The paper's pad: one cache line per row.
DEFAULT_PAD = 64


class SymmetrizationWorkload(TraceWorkload):
    """Matrix symmetrization, original or padded.

    Args:
        n: Matrix order (paper: 128).
        pad_bytes: Row padding (0 = original, 64 = the paper's fix).
        sweeps: How many times the loop nest runs (quantum-chemistry codes
            call this kernel repeatedly; >1 also separates cold misses from
            the steady-state conflict behaviour).
    """

    def __init__(self, n: int = DEFAULT_N, pad_bytes: int = 0, sweeps: int = 2) -> None:
        super().__init__()
        if n <= 0 or sweeps <= 0:
            raise ValueError("n and sweeps must be positive")
        self.n = n
        self.pad_bytes = pad_bytes
        self.sweeps = sweeps
        self.name = f"symmetrization{'-padded' if pad_bytes else ''}"
        self.a = Array2D.allocate(
            self.allocator, "A", rows=n, cols=n, elem_size=8, pad_bytes=pad_bytes
        )
        function = self.builder.function("symmetrize", file="symm.c")
        function.begin_loop(line=3)  # for i
        function.begin_loop(line=4)  # for j
        self.ip_row = function.add_statement(line=5)  # A[i][j] load
        self.ip_col = function.add_statement(line=5)  # A[j][i] load
        self.ip_store = function.add_statement(line=5)  # A[i][j] store
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N, sweeps: int = 2) -> "SymmetrizationWorkload":
        """The unpadded kernel."""
        return cls(n=n, pad_bytes=0, sweeps=sweeps)

    @classmethod
    def padded(cls, n: int = DEFAULT_N, sweeps: int = 2) -> "SymmetrizationWorkload":
        """The paper's 64-byte-per-row fix."""
        return cls(n=n, pad_bytes=DEFAULT_PAD, sweeps=sweeps)

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of i rows."""
        a = self.a
        body = LoopBody(
            [
                (self.ip_row, AccessKind.LOAD),
                (self.ip_col, AccessKind.LOAD),
                (self.ip_store, AccessKind.STORE),
            ],
            size=8,
        )
        j = np.arange(self.n)
        for _sweep in range(self.sweeps):
            for rows in outer_blocks(np.arange(self.n), len(body) * self.n):
                i = rows[:, None]
                yield body.batch(sites(a.addr(i, j), a.addr(j, i), a.addr(i, j)))

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors for the three access sites of line 5.

        Dimensions are (sweep, i, j) outermost-first; the column walk
        ``A[j][i]`` advances one row pitch per j — the conflict carrier.
        """
        n, sweeps, a = self.n, self.sweeps, self.a
        return [
            affine2d(a, self.ip_row, [(0, 0, sweeps), (1, 0, n), (0, 1, n)]),
            affine2d(a, self.ip_col, [(0, 0, sweeps), (0, 1, n), (1, 0, n)]),
            affine2d(
                a, self.ip_store, [(0, 0, sweeps), (1, 0, n), (0, 1, n)], kind="store"
            ),
        ]
