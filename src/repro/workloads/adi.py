"""PolyBench/C ADI — Alternating Direction Implicit solver (paper §6.2).

Listing 2 of the paper: the column sweep walks matrix ``u`` down a column
(``u[j][i]``), so consecutive references are one full row pitch apart.
With N a power of two the pitch is a multiple of the 4096-byte L1 mapping
period and every reference of the walk lands in the *same* set — the paper
measures RCD = 1 here, its most extreme conflict.  A 32-byte row pad breaks
the alignment (speedups 1.26x / 1.70x in Table 3).
"""

from __future__ import annotations

from repro.workloads.base import Array2D, NestWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load, store

#: PolyBench LARGE uses N=1024; scaled to keep one step ~1M accesses while
#: preserving pitch ≡ 0 (mod 4096): 256 doubles/row = 2048 B, so the column
#: walk recycles exactly 2 sets — still far beyond 8-way capacity.
DEFAULT_N = 256

#: The paper's fix: 32 bytes per row.
DEFAULT_PAD = 32


class AdiWorkload(NestWorkload):
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
        self.u = u = Array2D.allocate(self.allocator, "u", n, n, 8, pad_bytes=pad_bytes)
        self.v = v = Array2D.allocate(self.allocator, "v", n, n, 8, pad_bytes=pad_bytes)
        self.p = p = Array2D.allocate(self.allocator, "p", n, n, 8, pad_bytes=pad_bytes)
        self.q = q = Array2D.allocate(self.allocator, "q", n, n, 8, pad_bytes=pad_bytes)
        # Each sweep runs forward substitution over j with row-major helpers
        # p and q, then back substitution with j running down.  The column
        # sweep (the Listing 2 hot loop) walks columns u[j][i] and v[j][i].
        i, j = Loop(40, 1, n - 1, label="column_sweep_i"), Loop(45, 1, n - 1)
        jb = Loop(52, n - 2, 0, -1)
        column_sweep = i(
            j(Stmt(46, load(u, j, i), load(u, j, i - 1), load(u, j, i + 1),
                   store(p, i, j), store(q, i, j))),
            jb(Stmt(53, load(p, i, jb), load(q, i, jb), load(v, jb + 1, i), store(v, jb, i))),
        )
        # The row sweep: the same dance along rows (cache friendly).
        i, j = Loop(60, 1, n - 1, label="row_sweep_i"), Loop(65, 1, n - 1)
        jb = Loop(72, n - 2, 0, -1)
        row_sweep = i(
            j(Stmt(66, load(v, i, j), load(v, i - 1, j), load(v, i + 1, j),
                   store(p, i, j), store(q, i, j))),
            jb(Stmt(73, load(p, i, jb), load(q, i, jb), load(u, i, jb + 1), store(u, i, jb))),
        )
        self.nest = LoopNest(
            self.builder.function("kernel_adi", file="adi.c"), column_sweep, row_sweep,
            repeat=steps,
        )
        self.ip_col, self.ip_col_back, self.ip_row, self.ip_row_back = self.nest.ips

    @classmethod
    def original(cls, n: int = DEFAULT_N, steps: int = 1) -> "AdiWorkload":
        """Unpadded PolyBench layout."""
        return cls(n=n, steps=steps)

    @classmethod
    def padded(cls, n: int = DEFAULT_N, steps: int = 1) -> "AdiWorkload":
        """The paper's 32-byte row pad."""
        return cls(n=n, pad_bytes=DEFAULT_PAD, steps=steps)
