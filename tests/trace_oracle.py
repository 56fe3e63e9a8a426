"""Scalar reference generators for the seven case studies.

The per-access bodies the case-study workloads used before their traces
became columnar, kept verbatim as the differential oracle: each function
takes the workload as ``self`` and yields one
:class:`~repro.trace.record.MemoryAccess` per reference, straight from the
loop nest.  The columnar ``trace()`` of every workload and variant must
reproduce :func:`oracle_trace` record for record, on all five columns.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from repro.trace.record import MemoryAccess
from repro.workloads.adi import AdiWorkload
from repro.workloads.fft import COMPLEX_SIZE, Fft2dWorkload
from repro.workloads.himeno import FLOAT_SIZE as HIMENO_FLOAT_SIZE
from repro.workloads.himeno import HimenoWorkload
from repro.workloads.kripke import KripkeWorkload
from repro.workloads.nw import TILE, NeedlemanWunschWorkload
from repro.workloads.symmetrization import SymmetrizationWorkload
from repro.workloads.tinydnn import FLOAT_SIZE, TinyDnnFcWorkload


# -- symmetrization ----------------------------------------------------------


def symmetrization(self: SymmetrizationWorkload) -> Iterator[MemoryAccess]:
    a = self.a
    for _sweep in range(self.sweeps):
        for i in range(self.n):
            for j in range(self.n):
                yield self.load(self.ip_row, a.addr(i, j))
                yield self.load(self.ip_col, a.addr(j, i))
                yield self.store(self.ip_store, a.addr(i, j))


# -- Needleman-Wunsch --------------------------------------------------------


def nw(self: NeedlemanWunschWorkload) -> Iterator[MemoryAccess]:
    yield from _nw_init_loops(self)
    blocks = self.n // TILE
    # Phase 1: anti-diagonals growing from the top-left corner.
    for diagonal in range(blocks):
        for bx in range(diagonal + 1):
            by = diagonal - bx
            yield from _nw_tile(self, by, bx, lines=(128, 138, 147, 159))
    # Phase 2: anti-diagonals shrinking toward the bottom-right corner.
    for diagonal in range(blocks - 2, -1, -1):
        for bx in range(diagonal + 1):
            by = diagonal - bx
            yield from _nw_tile(
                self, blocks - 1 - by, blocks - 1 - bx, lines=(189, 199, 208, 220)
            )
    yield from _nw_traceback(self)


def _nw_init_loops(self: NeedlemanWunschWorkload) -> Iterator[MemoryAccess]:
    order = self.n + 1
    # needle.cpp:273 - first row/column score initialization.
    ip = self._ips[273]
    for j in range(order):
        yield self.store(ip, self.input_itemsets.addr(0, j), size=4)
    for i in range(order):
        yield self.store(ip, self.input_itemsets.addr(i, 0), size=4)
    # needle.cpp:289 - fill the reference (similarity) matrix; a plain
    # row-major stream, so heavy but conflict-free (Table 4: 64 sets).
    ip = self._ips[289]
    for i in range(1, order):
        for j in range(1, order):
            yield self.load(ip, self.input_itemsets.addr(i, 0), size=4)
            yield self.store(ip, self.reference.addr(i, j), size=4)


def _nw_tile(
    self: NeedlemanWunschWorkload, by: int, bx: int, lines
) -> Iterator[MemoryAccess]:
    copy_in, copy_ref, compute, writeback = lines
    row0, col0 = by * TILE, bx * TILE
    # Copy input tile (+ boundary) into the local temp (Listing 1).
    ip = self._ips[copy_in]
    for ty in range(TILE + 1):
        for tx in range(TILE + 1):
            yield self.load(ip, self.input_itemsets.addr(row0 + ty, col0 + tx), size=4)
            yield self.store(ip, self.temp_local.addr(ty, tx), size=4)
    # Copy reference tile into the local ref.
    ip = self._ips[copy_ref]
    for ty in range(TILE):
        for tx in range(TILE):
            yield self.load(ip, self.reference.addr(row0 + 1 + ty, col0 + 1 + tx), size=4)
            yield self.store(ip, self.ref_local.addr(ty, tx), size=4)
    # Compute on the locals (cache-resident: few misses, Table 4's
    # tiny-contribution compute loops).
    ip = self._ips[compute]
    for ty in range(1, TILE + 1):
        for tx in range(1, TILE + 1):
            yield self.load(ip, self.temp_local.addr(ty - 1, tx - 1), size=4)
            yield self.load(ip, self.temp_local.addr(ty - 1, tx), size=4)
            yield self.load(ip, self.temp_local.addr(ty, tx - 1), size=4)
            yield self.load(ip, self.ref_local.addr(ty - 1, tx - 1), size=4)
            yield self.store(ip, self.temp_local.addr(ty, tx), size=4)
    # Write the tile back.
    ip = self._ips[writeback]
    for ty in range(TILE):
        for tx in range(TILE):
            yield self.load(ip, self.temp_local.addr(ty + 1, tx + 1), size=4)
            yield self.store(ip, self.input_itemsets.addr(row0 + 1 + ty, col0 + 1 + tx), size=4)


def _nw_traceback(self: NeedlemanWunschWorkload) -> Iterator[MemoryAccess]:
    # needle.cpp:320 - walk the optimal path from the bottom-right.
    ip = self._ips[320]
    i = j = self.n
    while i > 0 and j > 0:
        yield self.load(ip, self.input_itemsets.addr(i - 1, j - 1), size=4)
        yield self.load(ip, self.input_itemsets.addr(i - 1, j), size=4)
        yield self.load(ip, self.input_itemsets.addr(i, j - 1), size=4)
        i -= 1
        j -= 1


# -- ADI ---------------------------------------------------------------------


def adi(self: AdiWorkload) -> Iterator[MemoryAccess]:
    n = self.n
    u, v, p, q = self.u, self.v, self.p, self.q
    for _step in range(self.steps):
        # Column sweep: forward substitution down each column of v/u,
        # with row-major helpers p and q.
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                yield self.load(self.ip_col, u.addr(j, i))        # column walk
                yield self.load(self.ip_col, u.addr(j, i - 1))
                yield self.load(self.ip_col, u.addr(j, i + 1))
                yield self.store(self.ip_col, p.addr(i, j))
                yield self.store(self.ip_col, q.addr(i, j))
            # Back substitution up the column of v.
            for j in range(n - 2, 0, -1):
                yield self.load(self.ip_col_back, p.addr(i, j))
                yield self.load(self.ip_col_back, q.addr(i, j))
                yield self.load(self.ip_col_back, v.addr(j + 1, i))  # column walk
                yield self.store(self.ip_col_back, v.addr(j, i))
        # Row sweep: same dance along rows (cache friendly direction).
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                yield self.load(self.ip_row, v.addr(i, j))
                yield self.load(self.ip_row, v.addr(i - 1, j))
                yield self.load(self.ip_row, v.addr(i + 1, j))
                yield self.store(self.ip_row, p.addr(i, j))
                yield self.store(self.ip_row, q.addr(i, j))
            for j in range(n - 2, 0, -1):
                yield self.load(self.ip_row_back, p.addr(i, j))
                yield self.load(self.ip_row_back, q.addr(i, j))
                yield self.load(self.ip_row_back, u.addr(i, j + 1))
                yield self.store(self.ip_row_back, u.addr(i, j))


# -- 2D FFT ------------------------------------------------------------------


def _bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def _fft_1d_accesses(self: Fft2dWorkload, ip: int, element_addr) -> Iterator[MemoryAccess]:
    """Radix-2 decimation-in-time butterfly access pattern.

    Args:
        ip: Instruction pointer of the pass.
        element_addr: index -> address mapping for the 1D slice.
    """
    n = self.n
    bits = n.bit_length() - 1
    # Bit-reversal permutation (reads + writes of swapped pairs).
    for index in range(n):
        swapped = _bit_reverse(index, bits)
        if swapped > index:
            yield self.load(ip, element_addr(index), size=COMPLEX_SIZE)
            yield self.load(ip, element_addr(swapped), size=COMPLEX_SIZE)
            yield self.store(ip, element_addr(index), size=COMPLEX_SIZE)
            yield self.store(ip, element_addr(swapped), size=COMPLEX_SIZE)
    # log2(n) butterfly stages.
    half = 1
    while half < n:
        for start in range(0, n, half * 2):
            for offset in range(half):
                top = element_addr(start + offset)
                bottom = element_addr(start + offset + half)
                yield self.load(ip, self.twiddles.addr(0, offset), size=COMPLEX_SIZE)
                yield self.load(ip, top, size=COMPLEX_SIZE)
                yield self.load(ip, bottom, size=COMPLEX_SIZE)
                yield self.store(ip, top, size=COMPLEX_SIZE)
                yield self.store(ip, bottom, size=COMPLEX_SIZE)
        half *= 2


def fft(self: Fft2dWorkload) -> Iterator[MemoryAccess]:
    data = self.data
    # Pass 1: FFT every row (unit stride within the row).
    for row in range(self.n):
        yield from _fft_1d_accesses(
            self, self.ip_row, lambda index, row=row: data.addr(row, index)
        )
    # Pass 2: FFT every column (full-pitch stride — the conflict pass).
    for col in range(self.n):
        yield from _fft_1d_accesses(
            self, self.ip_col, lambda index, col=col: data.addr(index, col)
        )


# -- Tiny-DNN ----------------------------------------------------------------


def tinydnn(self: TinyDnnFcWorkload) -> Iterator[MemoryAccess]:
    ip = self.ip_mac
    for _batch in range(self.batches):
        for i in range(self.out_size):
            for c in range(self.in_size):
                # W[c * out_size + i]: column walk of the weight matrix.
                yield self.load(ip, self.weights.addr(c, i), size=FLOAT_SIZE)
                yield self.load(ip, self.input.addr(c), size=FLOAT_SIZE)
                yield self.store(ip, self.activation.addr(i), size=FLOAT_SIZE)


# -- Kripke ------------------------------------------------------------------


def kripke(self: KripkeWorkload) -> Iterator[MemoryAccess]:
    psi, volume, weights = self.psi, self.volume, self.direction_weights
    for _sweep in range(self.sweeps):
        if self.row_order:
            # Optimized: z innermost matches psi's layout (unit stride).
            for g in range(self.groups):
                for d in range(self.directions):
                    yield self.load(self.ip_w, weights.addr(d))
                    for z in range(self.zones):
                        yield self.load(self.ip_vol, volume.addr(z))
                        yield self.load(self.ip_psi, psi.addr(g, d, z))
        else:
            # Original: g innermost jumps D*Z*8 bytes per step.
            for z in range(self.zones):
                yield self.load(self.ip_vol, volume.addr(z))
                for d in range(self.directions):
                    yield self.load(self.ip_w, weights.addr(d))
                    for g in range(self.groups):
                        yield self.load(self.ip_psi, psi.addr(g, d, z))


# -- Himeno ------------------------------------------------------------------


def himeno(self: HimenoWorkload) -> Iterator[MemoryAccess]:
    imax, jmax, kmax = self.dims
    ip = self.ip_body
    a, b, c = self.a, self.b, self.c
    p, bnd, wrk1, wrk2 = self.p, self.bnd, self.wrk1, self.wrk2
    for _it in range(self.iterations):
        for i in range(1, imax - 1):
            for j in range(1, jmax - 1):
                for k in range(1, kmax - 1):
                    reads: List[int] = [
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
                    ]
                    for address in reads:
                        yield self.load(ip, address, size=HIMENO_FLOAT_SIZE)
                    yield self.store(ip, wrk2.addr(0, i, j, k), size=HIMENO_FLOAT_SIZE)


_ORACLES: Dict[type, Callable[..., Iterator[MemoryAccess]]] = {
    SymmetrizationWorkload: symmetrization,
    NeedlemanWunschWorkload: nw,
    AdiWorkload: adi,
    Fft2dWorkload: fft,
    TinyDnnFcWorkload: tinydnn,
    KripkeWorkload: kripke,
    HimenoWorkload: himeno,
}


def oracle_trace(workload) -> Iterator[MemoryAccess]:
    """The scalar reference stream of a case-study workload (either variant)."""
    return _ORACLES[type(workload)](workload)
