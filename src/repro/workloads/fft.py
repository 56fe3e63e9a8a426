"""2D FFT with power-of-two dimensions (the MKL FFT case, paper §6.3).

"Cache conflict is a well-known issue for multidimensional Fourier
transformation with data of 2-power sizes on each dimension."  A 2D FFT
runs 1D transforms over every row (unit stride — harmless) and then over
every column: the column pass strides by the full row pitch, which for a
2^k x 2^k complex matrix is a multiple of the L1 mapping period — every
butterfly operand of a column lands in one cache set.

MKL is closed source, so CCProf "cannot attribute the samples to the code
but can associate samples to anonymous code blocks"; this workload builds
its program image with ``anonymous=True`` to reproduce exactly that: loops
report as ``mkl_fft2d@<ip>``.

The paper's fix pads each row by 8 (complex) elements.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import Array2D, LoopBody, TraceWorkload, outer_blocks, sites

#: Bytes per complex-double element.
COMPLEX_SIZE = 16

#: The paper transforms 4096x4096; scaled so a full 2D pass stays ~1M
#: accesses (128 x 128 keeps the pitch at 2048 B — still ≡ 0 mod 2048,
#: recycling 2 of 64 sets on the column pass).
DEFAULT_N = 128

#: The paper's fix: 8 elements per row.
DEFAULT_PAD_ELEMENTS = 8


def _bit_reverse(value: np.ndarray, bits: int) -> np.ndarray:
    result = np.zeros_like(value)
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value = value >> 1
    return result


class Fft2dWorkload(TraceWorkload):
    """Row-column 2D FFT over complex doubles, original or padded.

    Args:
        n: Transform size per dimension (power of two).
        pad_elements: Complex elements of padding per row (paper fix: 8).
    """

    def __init__(self, n: int = DEFAULT_N, pad_elements: int = 0) -> None:
        super().__init__()
        if n < 4 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 4: {n}")
        self.n = n
        self.pad_elements = pad_elements
        self.name = f"mkl-fft{'-padded' if pad_elements else ''}"
        self.data = Array2D.allocate(
            self.allocator,
            "fft_data",
            rows=n,
            cols=n,
            elem_size=COMPLEX_SIZE,
            pad_bytes=pad_elements * COMPLEX_SIZE,
        )
        # Twiddle-factor table: read-only, unit stride, stays hot.
        self.twiddles = Array2D.allocate(
            self.allocator, "twiddles", rows=1, cols=n, elem_size=COMPLEX_SIZE
        )
        function = self.builder.function("mkl_fft2d", file="<mkl>", anonymous=True)
        function.begin_loop(line=100, label="row_pass")
        function.begin_loop(line=101)
        self.ip_row = function.add_statement(line=102)
        function.end_loop()
        function.end_loop()
        function.begin_loop(line=200, label="column_pass")
        function.begin_loop(line=201)
        self.ip_col = function.add_statement(line=202)
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, n: int = DEFAULT_N) -> "Fft2dWorkload":
        """Unpadded power-of-two layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = DEFAULT_N) -> "Fft2dWorkload":
        """The paper's 8-element row pad."""
        return cls(n=n, pad_elements=DEFAULT_PAD_ELEMENTS)

    def _line(self) -> Tuple[List[AccessKind], np.ndarray, np.ndarray]:
        """One radix-2 decimation-in-time 1D transform, site by site.

        Returns each site's kind and ``index``, its element index within
        the line or, for twiddle-table loads (``twiddle`` true), the
        twiddle offset.
        """
        n = self.n
        load, store = AccessKind.LOAD, AccessKind.STORE
        # Bit-reversal permutation (reads + writes of swapped pairs).
        index = np.arange(n)
        swapped = _bit_reverse(index, n.bit_length() - 1)
        pair = swapped > index
        low, high = index[pair], swapped[pair]
        kinds = [load, load, store, store] * low.size
        indices = [sites(low, high, low, high).ravel()]
        twiddles = [np.zeros(4 * low.size, dtype=bool)]
        # log2(n) butterfly stages: twiddle, top, bottom loads; top,
        # bottom stores.
        half = 1
        while half < n:
            offset = np.tile(np.arange(half), n // (2 * half))
            top = np.repeat(np.arange(0, n, 2 * half), half) + offset
            kinds += [load, load, load, store, store] * top.size
            indices.append(sites(offset, top, top + half, top, top + half).ravel())
            twiddles.append(np.tile([True, False, False, False, False], top.size))
            half *= 2
        return kinds, np.concatenate(indices), np.concatenate(twiddles)

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of rows, then of columns."""
        data = self.data
        kinds, index, twiddle = self._line()
        twiddle_addr = self.twiddles.addr(0, index)
        lines = list(outer_blocks(np.arange(self.n), len(kinds)))
        # Pass 1: FFT every row (unit stride within the row).
        body = LoopBody([(self.ip_row, kind) for kind in kinds], size=COMPLEX_SIZE)
        for block in lines:
            row = block[:, None]
            yield body.batch(np.where(twiddle, twiddle_addr, data.addr(row, index)))
        # Pass 2: FFT every column (full-pitch stride — the conflict pass).
        body = LoopBody([(self.ip_col, kind) for kind in kinds], size=COMPLEX_SIZE)
        for block in lines:
            col = block[:, None]
            yield body.batch(np.where(twiddle, twiddle_addr, data.addr(index, col)))
