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

from repro.workloads.base import Array2D, NestWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load, store

#: The paper's matrix order.
DEFAULT_N = 128

#: The paper's pad: one cache line per row.
DEFAULT_PAD = 64


class SymmetrizationWorkload(NestWorkload):
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
        self.a = a = Array2D.allocate(
            self.allocator, "A", rows=n, cols=n, elem_size=8, pad_bytes=pad_bytes
        )
        i, j = Loop(3, 0, n), Loop(4, 0, n)
        # The column walk A[j][i] advances one row pitch per j: the conflict
        # carrier.
        self.nest = LoopNest(
            self.builder.function("symmetrize", file="symm.c"),
            i(j(Stmt(5, load(a, i, j)), Stmt(5, load(a, j, i)), Stmt(5, store(a, i, j)))),
            repeat=sweeps,
        )
        self.ip_row, self.ip_col, self.ip_store = self.nest.ips

    @classmethod
    def original(cls, n: int = DEFAULT_N, sweeps: int = 2) -> "SymmetrizationWorkload":
        """The unpadded kernel."""
        return cls(n=n, pad_bytes=0, sweeps=sweeps)

    @classmethod
    def padded(cls, n: int = DEFAULT_N, sweeps: int = 2) -> "SymmetrizationWorkload":
        """The paper's 64-byte-per-row fix."""
        return cls(n=n, pad_bytes=DEFAULT_PAD, sweeps=sweeps)
