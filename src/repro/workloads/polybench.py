"""PolyBench/C kernels beyond ADI.

The paper's correctness study draws loops "from Rodinia and PolyBench/C
benchmark suite" (§5); only ADI is detailed in the case studies.  This
module models five more PolyBench kernels with their canonical loop nests
and power-of-two problem sizes — the configuration under which the linear-
algebra kernels exhibit the classic transposed-operand column walks — plus
padded variants:

- ``gemm``      C = alpha*A*B + beta*C  (B walked by column)
- ``2mm``       two chained matmuls (same signature, twice)
- ``jacobi-2d`` 5-point stencil (row-friendly: the clean control)
- ``fdtd-2d``   2.5D stencil over ex/ey/hz (row-friendly, clean)
- ``trmm``      triangular matmul (column walk over the triangle)

Each workload exposes ``original()`` / ``padded()`` like the case studies.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.descriptors import AffineAccess, affine2d
from repro.trace.record import MemoryAccess
from repro.workloads.base import Array2D, TraceWorkload

#: Matrix order: 128 doubles per row = 1024 B pitch = the 4-set fold.
DEFAULT_N = 128

#: One cache line of padding, the standard fix.
DEFAULT_PAD = 64


class GemmWorkload(TraceWorkload):
    """PolyBench ``gemm``: the inner product walks B by column.

    The (i, j, k) nest reads ``B[k][j]`` with k innermost: stride = B's
    pitch, the same conflict signature as ADI's column sweep.
    """

    def __init__(self, n: int = DEFAULT_N, pad_bytes: int = 0) -> None:
        super().__init__()
        if n < 4:
            raise ValueError(f"n must be >= 4: {n}")
        self.n = n
        self.pad_bytes = pad_bytes
        self.name = f"gemm{'-padded' if pad_bytes else ''}"
        self.a = Array2D.allocate(self.allocator, "A", n, n, 8, pad_bytes=pad_bytes)
        self.b = Array2D.allocate(self.allocator, "B", n, n, 8, pad_bytes=pad_bytes)
        self.c = Array2D.allocate(self.allocator, "C", n, n, 8, pad_bytes=pad_bytes)
        function = self.builder.function("kernel_gemm", file="gemm.c")
        function.begin_loop(line=30, label="i")
        function.begin_loop(line=31, label="j")
        function.begin_loop(line=33, label="k")
        self.ip_inner = function.add_statement(line=34)
        function.end_loop()
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N) -> "GemmWorkload":
        """Unpadded power-of-two layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = DEFAULT_N) -> "GemmWorkload":
        """One line of padding per row."""
        return cls(n=n, pad_bytes=DEFAULT_PAD)

    def trace(self) -> Iterator[MemoryAccess]:
        n, a, b, c = self.n, self.a, self.b, self.c
        for i in range(n):
            for j in range(n):
                yield self.load(self.ip_inner, c.addr(i, j))
                for k in range(n):
                    yield self.load(self.ip_inner, a.addr(i, k))
                    yield self.load(self.ip_inner, b.addr(k, j))  # column walk
                yield self.store(self.ip_inner, c.addr(i, j))

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors: B's ``[k][j]`` read carries the conflict."""
        n = self.n
        return [
            affine2d(self.c, self.ip_inner, [(1, 0, n), (0, 1, n)]),
            affine2d(self.a, self.ip_inner, [(1, 0, n), (0, 0, n), (0, 1, n)]),
            affine2d(self.b, self.ip_inner, [(0, 0, n), (0, 1, n), (1, 0, n)]),
            affine2d(self.c, self.ip_inner, [(1, 0, n), (0, 1, n)], kind="store"),
        ]


class TwoMmWorkload(TraceWorkload):
    """PolyBench ``2mm``: D = A*B, E = D*C — two chained column walks."""

    def __init__(self, n: int = DEFAULT_N // 2, pad_bytes: int = 0) -> None:
        super().__init__()
        if n < 4:
            raise ValueError(f"n must be >= 4: {n}")
        self.n = n
        self.pad_bytes = pad_bytes
        self.name = f"2mm{'-padded' if pad_bytes else ''}"
        labels = ("A", "B", "C", "D", "E")
        self.matrices = {
            label: Array2D.allocate(self.allocator, label, n, n, 8, pad_bytes=pad_bytes)
            for label in labels
        }
        function = self.builder.function("kernel_2mm", file="2mm.c")
        function.begin_loop(line=40, label="mm1")
        self.ip_mm1 = function.add_statement(line=41)
        function.end_loop()
        function.begin_loop(line=50, label="mm2")
        self.ip_mm2 = function.add_statement(line=51)
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N // 2) -> "TwoMmWorkload":
        """Unpadded power-of-two layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = DEFAULT_N // 2) -> "TwoMmWorkload":
        """One line of padding per row."""
        return cls(n=n, pad_bytes=DEFAULT_PAD)

    def _matmul(self, ip, left, right, out) -> Iterator[MemoryAccess]:
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    yield self.load(ip, left.addr(i, k))
                    yield self.load(ip, right.addr(k, j))
                yield self.store(ip, out.addr(i, j))

    def trace(self) -> Iterator[MemoryAccess]:
        m = self.matrices
        yield from self._matmul(self.ip_mm1, m["A"], m["B"], m["D"])
        yield from self._matmul(self.ip_mm2, m["D"], m["C"], m["E"])

    def _matmul_patterns(self, ip, left, right, out) -> List[AffineAccess]:
        n = self.n
        return [
            affine2d(left, ip, [(1, 0, n), (0, 0, n), (0, 1, n)]),
            affine2d(right, ip, [(0, 0, n), (0, 1, n), (1, 0, n)]),
            affine2d(out, ip, [(1, 0, n), (0, 1, n)], kind="store"),
        ]

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors: both chained products walk a column."""
        m = self.matrices
        return self._matmul_patterns(
            self.ip_mm1, m["A"], m["B"], m["D"]
        ) + self._matmul_patterns(self.ip_mm2, m["D"], m["C"], m["E"])


class Jacobi2dWorkload(TraceWorkload):
    """PolyBench ``jacobi-2d``: the clean control — row-order 5-point
    stencil, no column walks, conflict-free at any pitch."""

    def __init__(self, n: int = 2 * DEFAULT_N, steps: int = 2, pad_bytes: int = 0) -> None:
        super().__init__()
        if n < 4 or steps <= 0:
            raise ValueError("need n >= 4 and steps >= 1")
        self.n = n
        self.steps = steps
        self.name = f"jacobi-2d{'-padded' if pad_bytes else ''}"
        self.a = Array2D.allocate(self.allocator, "A", n, n, 8, pad_bytes=pad_bytes)
        self.b = Array2D.allocate(self.allocator, "B", n, n, 8, pad_bytes=pad_bytes)
        function = self.builder.function("kernel_jacobi_2d", file="jacobi-2d.c")
        function.begin_loop(line=25, label="t")
        function.begin_loop(line=26, label="i")
        function.begin_loop(line=27, label="j")
        self.ip_stencil = function.add_statement(line=28)
        function.end_loop()
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = 2 * DEFAULT_N) -> "Jacobi2dWorkload":
        """The standard layout (already conflict-free by access order)."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = 2 * DEFAULT_N) -> "Jacobi2dWorkload":
        """Padded variant (no-op for this access pattern, by design)."""
        return cls(n=n, pad_bytes=DEFAULT_PAD)

    def trace(self) -> Iterator[MemoryAccess]:
        n, a, b = self.n, self.a, self.b
        ip = self.ip_stencil
        for _step in range(self.steps):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    yield self.load(ip, a.addr(i, j))
                    yield self.load(ip, a.addr(i, j - 1))
                    yield self.load(ip, a.addr(i, j + 1))
                    yield self.load(ip, a.addr(i - 1, j))
                    yield self.load(ip, a.addr(i + 1, j))
                    yield self.store(ip, b.addr(i, j))
            a, b = b, a

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors: row-order stencil (capacity, not conflict).

        The arrays swap roles every step: steps 0, 2, ... read A and write
        B, steps 1, 3, ... read B and write A.
        """
        n, steps, ip = self.n, self.steps, self.ip_stencil
        accesses = []
        for src, dst, count in ((self.a, self.b, (steps + 1) // 2), (self.b, self.a, steps // 2)):
            if count:
                dims = [(0, 0, count), (1, 0, n - 2), (0, 1, n - 2)]
                accesses += [
                    affine2d(src, ip, dims, origin=(1, 1)),
                    affine2d(src, ip, dims, origin=(1, 0)),
                    affine2d(src, ip, dims, origin=(1, 2)),
                    affine2d(src, ip, dims, origin=(0, 1)),
                    affine2d(src, ip, dims, origin=(2, 1)),
                    affine2d(dst, ip, dims, kind="store", origin=(1, 1)),
                ]
        return accesses


class Fdtd2dWorkload(TraceWorkload):
    """PolyBench ``fdtd-2d``: row-order sweeps over ex/ey/hz (clean)."""

    def __init__(self, n: int = 2 * DEFAULT_N, steps: int = 2, pad_bytes: int = 0) -> None:
        super().__init__()
        if n < 4 or steps <= 0:
            raise ValueError("need n >= 4 and steps >= 1")
        self.n = n
        self.steps = steps
        self.name = f"fdtd-2d{'-padded' if pad_bytes else ''}"
        self.ex = Array2D.allocate(self.allocator, "ex", n, n, 8, pad_bytes=pad_bytes)
        self.ey = Array2D.allocate(self.allocator, "ey", n, n, 8, pad_bytes=pad_bytes)
        self.hz = Array2D.allocate(self.allocator, "hz", n, n, 8, pad_bytes=pad_bytes)
        function = self.builder.function("kernel_fdtd_2d", file="fdtd-2d.c")
        function.begin_loop(line=40, label="t")
        function.begin_loop(line=41, label="field_updates")
        self.ip_update = function.add_statement(line=42)
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = 2 * DEFAULT_N) -> "Fdtd2dWorkload":
        """The standard layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = 2 * DEFAULT_N) -> "Fdtd2dWorkload":
        """Padded variant (no-op for this access pattern)."""
        return cls(n=n, pad_bytes=DEFAULT_PAD)

    def trace(self) -> Iterator[MemoryAccess]:
        n, ex, ey, hz = self.n, self.ex, self.ey, self.hz
        ip = self.ip_update
        for _step in range(self.steps):
            for i in range(1, n):
                for j in range(1, n):
                    yield self.load(ip, hz.addr(i, j - 1))
                    yield self.load(ip, hz.addr(i - 1, j))
                    yield self.load(ip, ex.addr(i, j))
                    yield self.load(ip, ey.addr(i, j))
                    yield self.store(ip, ex.addr(i, j))
                    yield self.store(ip, ey.addr(i, j))
                    yield self.store(ip, hz.addr(i - 1, j - 1))

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors: row-order field sweeps (clean control)."""
        n, steps = self.n, self.steps
        dims = [(0, 0, steps), (1, 0, n - 1), (0, 1, n - 1)]
        ip = self.ip_update
        return [
            affine2d(self.hz, ip, dims, origin=(1, 0)),
            affine2d(self.hz, ip, dims, origin=(0, 1)),
            affine2d(self.ex, ip, dims, origin=(1, 1)),
            affine2d(self.ey, ip, dims, origin=(1, 1)),
            affine2d(self.ex, ip, dims, kind="store", origin=(1, 1)),
            affine2d(self.ey, ip, dims, kind="store", origin=(1, 1)),
            affine2d(self.hz, ip, dims, kind="store", origin=(0, 0)),
        ]


class TrmmWorkload(TraceWorkload):
    """PolyBench ``trmm``: B := A^T-ish triangular product; the reduction
    walks B by column over the triangle."""

    def __init__(self, n: int = DEFAULT_N, pad_bytes: int = 0) -> None:
        super().__init__()
        if n < 4:
            raise ValueError(f"n must be >= 4: {n}")
        self.n = n
        self.name = f"trmm{'-padded' if pad_bytes else ''}"
        self.a = Array2D.allocate(self.allocator, "A", n, n, 8, pad_bytes=pad_bytes)
        self.b = Array2D.allocate(self.allocator, "B", n, n, 8, pad_bytes=pad_bytes)
        function = self.builder.function("kernel_trmm", file="trmm.c")
        function.begin_loop(line=30, label="i")
        function.begin_loop(line=31, label="j")
        function.begin_loop(line=32, label="k")
        self.ip_inner = function.add_statement(line=33)
        function.end_loop()
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N) -> "TrmmWorkload":
        """Unpadded power-of-two layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = DEFAULT_N) -> "TrmmWorkload":
        """One line of padding per row."""
        return cls(n=n, pad_bytes=DEFAULT_PAD)

    def trace(self) -> Iterator[MemoryAccess]:
        n, a, b = self.n, self.a, self.b
        ip = self.ip_inner
        for i in range(n):
            for j in range(n):
                for k in range(i + 1, n):
                    yield self.load(ip, a.addr(k, i))  # column walk of A
                    yield self.load(ip, b.addr(k, j))  # column walk of B
                yield self.store(ip, b.addr(i, j))

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors for the triangular product.

        The triangular bound (k from i+1) is approximated by the full
        rectangular extent: the footprint and per-window pressure of the
        column walks are unchanged, only trip counts are overstated by 2x.
        """
        n = self.n
        ip = self.ip_inner
        return [
            affine2d(self.a, ip, [(0, 1, n), (0, 0, n), (1, 0, n)]),
            affine2d(self.b, ip, [(0, 0, n), (0, 1, n), (1, 0, n)]),
            affine2d(self.b, ip, [(1, 0, n), (0, 1, n)], kind="store"),
        ]


#: PolyBench workload factories keyed by kernel name.
POLYBENCH_KERNELS = {
    "gemm": GemmWorkload,
    "2mm": TwoMmWorkload,
    "jacobi-2d": Jacobi2dWorkload,
    "fdtd-2d": Fdtd2dWorkload,
    "trmm": TrmmWorkload,
}
