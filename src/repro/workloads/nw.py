"""Rodinia Needleman-Wunsch (paper §6.1, Tables 2/3/4, Listing 1).

Tiled dynamic-programming DNA alignment over two (N+1)x(N+1) ``int``
matrices, ``input_itemsets`` and ``reference``, allocated back to back.
The kernel processes 16x16 tiles along anti-diagonals in two phases
(top-left, then bottom-right); each tile copies a slab of both big matrices
into small locals, computes, and writes back.

The conflicts are structural: the matrix pitch ``(N+1)*4`` is nearly 0
modulo the 4096-byte L1 mapping period, so the 16 consecutive rows a tile
copy touches recycle very few cache sets, and the two matrices' bases are
separated by ``(N+1)^2*4`` — also nearly 0 modulo the period — so both tile
copies in the same iteration fight for the *same* sets (the "inter-array
conflict" of §6.1).  The paper's fix pads ``reference`` rows by 32 bytes
and ``input_itemsets`` rows by 288 bytes.

Loops are labelled with the ``needle.cpp`` line numbers of Table 4 so the
reproduction's reports read like the paper's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis.descriptors import AffineAccess, affine2d
from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import (
    Array2D, LoopBody, TraceWorkload, in_sequence, outer_blocks, sites,
)

#: Rodinia's tile edge.
TILE = 16

#: The paper's pads (reference, input_itemsets), in bytes per row.
PAPER_PADS = (32, 288)

#: Default matrix order; the paper uses 2048, scaled down so one trace stays
#: in the low millions of accesses (the conflict arithmetic is preserved —
#: see class docstring).
DEFAULT_N = 512


class NeedlemanWunschWorkload(TraceWorkload):
    """Tiled NW, original or padded.

    Args:
        n: Sequence length (matrix order is n+1; use multiples of 16).
        reference_pad: Row pad on ``reference`` (paper fix: 32).
        input_pad: Row pad on ``input_itemsets`` (paper fix: 288).
    """

    def __init__(
        self, n: int = DEFAULT_N, reference_pad: int = 0, input_pad: int = 0
    ) -> None:
        super().__init__()
        if n % TILE:
            raise ValueError(f"n must be a multiple of {TILE}: {n}")
        self.n = n
        self.name = f"nw{'-padded' if (reference_pad or input_pad) else ''}"
        order = n + 1
        # Allocation order matches Rodinia: reference then input_itemsets,
        # contiguous on the heap — that adjacency is what aligns them.
        self.reference = Array2D.allocate(
            self.allocator, "reference", order, order, elem_size=4,
            pad_bytes=reference_pad,
        )
        self.input_itemsets = Array2D.allocate(
            self.allocator, "input_itemsets", order, order, elem_size=4,
            pad_bytes=input_pad,
        )
        # Tile-local scratch (Rodinia's __shared__-style locals).
        self.temp_local = Array2D.allocate(
            self.allocator, "temp_local", TILE + 1, TILE + 1, elem_size=4
        )
        self.ref_local = Array2D.allocate(
            self.allocator, "ref_local", TILE, TILE, elem_size=4
        )
        self._ips: Dict[int, int] = {}
        self._declare_image()

    @classmethod
    def original(cls, n: int = DEFAULT_N) -> "NeedlemanWunschWorkload":
        """The unpadded Rodinia layout."""
        return cls(n=n)

    @classmethod
    def padded(cls, n: int = DEFAULT_N) -> "NeedlemanWunschWorkload":
        """The paper's 32/288-byte row pads."""
        return cls(n=n, reference_pad=PAPER_PADS[0], input_pad=PAPER_PADS[1])

    def _declare_image(self) -> None:
        """Declare the 11 Table-4 loops of needle.cpp."""
        function = self.builder.function("nw_cpu", file="needle.cpp")
        # Initialization loops.
        function.begin_loop(line=273)
        self._ips[273] = function.add_statement(line=274)
        function.end_loop()
        function.begin_loop(line=289)
        self._ips[289] = function.add_statement(line=290)
        function.end_loop()
        # Phase 1 (top-left): per-tile copy / copy / compute / writeback.
        function.begin_loop(line=120, label="phase1_tiles")
        function.begin_loop(line=128)
        self._ips[128] = function.add_statement(line=129)
        function.end_loop()
        function.begin_loop(line=138)
        self._ips[138] = function.add_statement(line=139)
        function.end_loop()
        function.begin_loop(line=147)
        self._ips[147] = function.add_statement(line=148)
        function.end_loop()
        function.begin_loop(line=159)
        self._ips[159] = function.add_statement(line=160)
        function.end_loop()
        function.end_loop()
        # Phase 2 (bottom-right).
        function.begin_loop(line=180, label="phase2_tiles")
        function.begin_loop(line=189)
        self._ips[189] = function.add_statement(line=190)
        function.end_loop()
        function.begin_loop(line=199)
        self._ips[199] = function.add_statement(line=200)
        function.end_loop()
        function.begin_loop(line=208)
        self._ips[208] = function.add_statement(line=209)
        function.end_loop()
        function.begin_loop(line=220)
        self._ips[220] = function.add_statement(line=221)
        function.end_loop()
        function.end_loop()
        # Traceback.
        function.begin_loop(line=320)
        self._ips[320] = function.add_statement(line=321)
        function.end_loop()
        function.finish()

    def loop_name(self, line: int) -> str:
        """Report name of the loop declared at ``needle.cpp:line``."""
        if line not in self._ips:
            raise KeyError(f"no loop at needle.cpp:{line}")
        return f"needle.cpp:{line}"

    def access_patterns(self) -> List[AffineAccess]:
        """Static descriptors for the copy/compute/writeback tile loops.

        Tile iteration is declared as a full ``blocks x blocks`` rectangle
        (the anti-diagonal schedule covers a triangle per phase; footprints
        are unchanged).  Note the known modelling limit this workload
        exercises: NW's measured conflicts are *inter-array* — tile copies
        of ``input_itemsets``, ``reference`` and the locals fighting for
        the same sets — which per-access window analysis cannot see, so the
        static report is expected to under-predict here (see
        ``examples/static_vs_dynamic.py``).
        """
        blocks = self.n // TILE
        order = self.n + 1
        inp, ref = self.input_itemsets, self.reference
        temp, local = self.temp_local, self.ref_local
        patterns: List[AffineAccess] = [
            # needle.cpp:273 - first row, then first column.
            affine2d(inp, self._ips[273], [(0, 1, order)], kind="store"),
            affine2d(inp, self._ips[273], [(1, 0, order)], kind="store"),
            # needle.cpp:289 - row-major reference fill.
            affine2d(
                inp, self._ips[289], [(1, 0, order - 1), (0, 0, order - 1)],
                origin=(1, 0),
            ),
            affine2d(
                ref, self._ips[289], [(1, 0, order - 1), (0, 1, order - 1)],
                kind="store", origin=(1, 1),
            ),
        ]
        for copy_in, copy_ref, compute, writeback in (
            (128, 138, 147, 159),
            (189, 199, 208, 220),
        ):
            tiles_in = [(TILE, 0, blocks), (0, TILE, blocks)]
            patterns.extend(
                [
                    affine2d(
                        inp, self._ips[copy_in],
                        tiles_in + [(1, 0, TILE + 1), (0, 1, TILE + 1)],
                    ),
                    affine2d(
                        temp, self._ips[copy_in],
                        [(0, 0, blocks), (0, 0, blocks),
                         (1, 0, TILE + 1), (0, 1, TILE + 1)],
                        kind="store",
                    ),
                    affine2d(
                        ref, self._ips[copy_ref],
                        tiles_in + [(1, 0, TILE), (0, 1, TILE)],
                        origin=(1, 1),
                    ),
                    affine2d(
                        local, self._ips[copy_ref],
                        [(0, 0, blocks), (0, 0, blocks), (1, 0, TILE), (0, 1, TILE)],
                        kind="store",
                    ),
                    affine2d(
                        temp, self._ips[compute],
                        [(0, 0, blocks), (0, 0, blocks), (1, 0, TILE), (0, 1, TILE)],
                    ),
                    affine2d(
                        inp, self._ips[writeback],
                        tiles_in + [(1, 0, TILE), (0, 1, TILE)],
                        kind="store", origin=(1, 1),
                    ),
                ]
            )
        # needle.cpp:320 - diagonal traceback (descending both indices).
        patterns.append(
            affine2d(inp, self._ips[320], [(-1, -1, self.n)], origin=(self.n, self.n))
        )
        return patterns

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """The init loops, runs of tiles along each anti-diagonal, the
        traceback."""
        yield from self._init_loops()
        blocks = self.n // TILE
        # Phase 1: anti-diagonals growing from the top-left corner.
        phase1 = self._tile_body((128, 138, 147, 159))
        for diagonal in range(blocks):
            for bx in outer_blocks(np.arange(diagonal + 1), len(phase1)):
                yield phase1.batch(self._tiles(diagonal - bx, bx))
        # Phase 2: anti-diagonals shrinking toward the bottom-right corner.
        phase2 = self._tile_body((189, 199, 208, 220))
        for diagonal in range(blocks - 2, -1, -1):
            for bx in outer_blocks(np.arange(diagonal + 1), len(phase2)):
                yield phase2.batch(
                    self._tiles(blocks - 1 - (diagonal - bx), blocks - 1 - bx)
                )
        yield self._traceback()

    def _init_loops(self) -> Iterator[TraceBatch]:
        order = self.n + 1
        inp = self.input_itemsets
        # needle.cpp:273 - first row/column score initialization.
        edge = np.arange(order)
        yield LoopBody([(self._ips[273], AccessKind.STORE)], size=4).batch(
            np.concatenate([inp.addr(0, edge), inp.addr(edge, 0)])
        )
        # needle.cpp:289 - fill the reference (similarity) matrix; a plain
        # row-major stream, so heavy but conflict-free (Table 4: 64 sets).
        ip = self._ips[289]
        body = LoopBody([(ip, AccessKind.LOAD), (ip, AccessKind.STORE)], size=4)
        j = np.arange(1, order)
        for rows in outer_blocks(np.arange(1, order), len(body) * j.size):
            i = rows[:, None]
            yield body.batch(sites(inp.addr(i, 0), self.reference.addr(i, j)))

    def _tile_body(self, lines: Tuple[int, int, int, int]) -> LoopBody:
        """One tile's copy / copy / compute / writeback sites, in order."""
        copy_in, copy_ref, compute, writeback = (self._ips[line] for line in lines)
        load, store = AccessKind.LOAD, AccessKind.STORE
        return LoopBody(
            [(copy_in, load), (copy_in, store)] * (TILE + 1) ** 2
            + [(copy_ref, load), (copy_ref, store)] * TILE ** 2
            + ([(compute, load)] * 4 + [(compute, store)]) * TILE ** 2
            + [(writeback, load), (writeback, store)] * TILE ** 2,
            size=4,
        )

    def _tiles(self, by: np.ndarray, bx: np.ndarray) -> np.ndarray:
        """Addresses of the tiles ``(by[k], bx[k])``: ``(tiles, sites)``
        in :meth:`_tile_body` order."""
        inp, ref = self.input_itemsets, self.reference
        temp, local = self.temp_local, self.ref_local
        row0 = (by * TILE)[:, None, None]
        col0 = (bx * TILE)[:, None, None]
        # The input copy runs (ty, tx) over the tile plus its boundary row
        # and column; the other loops run (t, s) over the tile (compute's
        # ty, tx are t + 1, s + 1).
        ty, tx = np.ogrid[0:TILE + 1, 0:TILE + 1]
        t, s = np.ogrid[0:TILE, 0:TILE]
        return in_sequence(
            # Copy input tile (+ boundary) into the local temp (Listing 1).
            sites(inp.addr(row0 + ty, col0 + tx), temp.addr(ty, tx)),
            # Copy reference tile into the local ref.
            sites(ref.addr(row0 + 1 + t, col0 + 1 + s), local.addr(t, s)),
            # Compute on the locals (cache-resident: few misses, Table 4's
            # tiny-contribution compute loops); the same for every tile.
            sites(
                temp.addr(t, s), temp.addr(t, s + 1), temp.addr(t + 1, s),
                local.addr(t, s), temp.addr(t + 1, s + 1),
            )[None],
            # Write the tile back.
            sites(temp.addr(t + 1, s + 1), inp.addr(row0 + 1 + t, col0 + 1 + s)),
        )

    def _traceback(self) -> TraceBatch:
        # needle.cpp:320 - walk the optimal path from the bottom-right.
        inp = self.input_itemsets
        i = np.arange(self.n, 0, -1)  # i == j along the walk
        return LoopBody([(self._ips[320], AccessKind.LOAD)] * 3, size=4).batch(
            sites(inp.addr(i - 1, i - 1), inp.addr(i - 1, i), inp.addr(i, i - 1))
        )
