"""The ``setwalk`` inputs: a column walk over a power-of-two-pitch matrix.

A 512 x 512 matrix of doubles has a 4096 B row pitch, which is exactly the
L1 mapping period (64 sets x 64 B lines): every row of a column lands in the
same set.  Walking a column therefore cycles 512 lines through one 8-way set
and every access misses (the *conflict* phase).  One 64 B pad per row
shifts each row by one set, the 512 lines of a column block spread over all
64 sets and exactly fill the 32 KiB L1, so only the first touch of each line
misses: 1 miss per 8 doubles, 12.5% (the *padded* phase).  This is the
set-aliasing effect of power-of-two strides ("Appearances of the Birthday
Paradox in High Performance Computing", PAPERS.md) in its purest form.

Both miss ratios are exact for any base address and any visiting order of
the column blocks and of the columns inside a block, as long as no block
directly follows itself (in the padded phase the block just visited fills
the whole L1, so a repeat would hit); the seed picks the base offset and
both orders without changing what the cache must report.

The columns are built with NumPy directly as :class:`TraceBatch` runs; no
per-access Python object exists, so the program's simulator is what the
phase measures.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.analysis.descriptors import AffineAccess, affine2d
from repro.trace.batch import DEFAULT_BATCH_SIZE, TraceBatch
from repro.trace.record import AccessKind
from repro.workloads.base import Array2D, TraceWorkload

ROWS = 512
COLS = 512
SWEEPS = 16
ELEM = 8
LINE = 64
#: Columns sharing one cache line.
BLOCK = LINE // ELEM

#: phase name -> (row pad in bytes, exact L1 miss ratio the cache must report)
PHASES = {"conflict": (0, 1.0), "padded": (LINE, 1.0 / BLOCK)}

#: Whether the paper's classifier must flag the phase (label by construction:
#: the conflict phase misses only in one set at a time, the padded phase
#: spreads its misses evenly over all sets).
LABELS = {"conflict": True, "padded": False}


class SetWalk(TraceWorkload):
    """One phase of the walk, built from ``seed``.

    The image declares the loop nest (sweep, column block, column, row) so
    the offline analyzer attributes samples to a loop, and
    :meth:`access_patterns` declares the column walk so the static screen
    and predictor can reason about it too.
    """

    def __init__(self, phase: str, seed: int, sweeps: int = SWEEPS) -> None:
        super().__init__()
        pad, self.expected_miss_ratio = PHASES[phase]
        self.phase = phase
        self.sweeps = sweeps
        self.name = f"setwalk-{phase}"
        self._rng_seed = (seed, sorted(PHASES).index(phase))
        rng = np.random.default_rng(self._rng_seed)
        # A seeded lead allocation moves the matrix by a whole number of
        # lines, so which sets the walk uses depends on the seed.
        lead_lines = int(rng.integers(1, 64))
        self.allocator.malloc(lead_lines * LINE, "lead", align=LINE)
        self.matrix = Array2D.allocate(
            self.allocator, "matrix", rows=ROWS, cols=COLS, elem_size=ELEM,
            pad_bytes=pad, align=LINE,
        )
        function = self.builder.function("walk", file="setwalk.c")
        for line in (10, 11, 12, 13):  # sweep, block, column, row
            function.begin_loop(line=line)
        self.ip = function.add_statement(line=14)
        for _ in range(4):
            function.end_loop()
        function.finish()

    def column_order(self) -> np.ndarray:
        """Visiting order of the columns, one row of ``COLS`` per sweep."""
        rng = np.random.default_rng(self._rng_seed + (1,))
        orders = np.empty((self.sweeps, COLS), dtype=np.int64)
        previous = -1
        for sweep in range(self.sweeps):
            blocks = rng.permutation(COLS // BLOCK)
            if blocks[0] == previous:
                blocks[[0, 1]] = blocks[[1, 0]]
            previous = blocks[-1]
            inner = rng.permuted(
                np.tile(np.arange(BLOCK), (blocks.size, 1)), axis=1
            )
            orders[sweep] = (blocks[:, None] * BLOCK + inner).ravel()
        return orders

    def trace(self) -> Iterator[TraceBatch]:
        """The walk as columnar batches of ``DEFAULT_BATCH_SIZE`` records."""
        base = self.matrix.addr(0, 0)
        row_offsets = np.arange(ROWS, dtype=np.uint64) * np.uint64(self.matrix.pitch)
        per_batch = DEFAULT_BATCH_SIZE // ROWS
        for columns in self.column_order():
            for start in range(0, COLS, per_batch):
                cols = columns[start:start + per_batch].astype(np.uint64)
                addresses = (
                    np.uint64(base) + cols[:, None] * np.uint64(ELEM)
                    + row_offsets[None, :]
                ).ravel()
                yield TraceBatch.from_arrays(
                    ip=np.full(addresses.size, self.ip, dtype=np.uint64),
                    address=addresses,
                    kind=int(AccessKind.LOAD),
                    size=ELEM,
                )

    def prefix(self, accesses: int) -> List[TraceBatch]:
        """The first ``accesses`` records of :meth:`trace` (for oracles)."""
        batches: List[TraceBatch] = []
        remaining = accesses
        for batch in self.trace():
            if remaining <= 0:
                break
            batches.append(batch[:remaining])
            remaining -= len(batches[-1])
        return batches

    def access_patterns(self) -> List[AffineAccess]:
        """The walk in column order: (sweep, column, row), outermost first."""
        return [
            affine2d(
                self.matrix, self.ip,
                [(0, 0, self.sweeps), (0, 1, COLS), (1, 0, ROWS)],
            )
        ]
