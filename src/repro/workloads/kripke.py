"""Kripke particle-edit kernel (paper §6.5, Listing 4).

    for (z) for (d) for (g)
        part += w * (*sdom.psi)(g, d, z) * vol;

``psi`` is laid out group-major — element (g, d, z) lives at linear index
``(g * D + d) * Z + z`` — but the loop nest iterates g innermost, so each
innermost step jumps ``D * Z * 8`` bytes.  With power-of-two direction/zone
counts that stride is a multiple of the L1 mapping period: every psi
reference of the inner loop lands in the same set.

The paper's fix is not padding but a *loop-order* transformation ("simply
transforming to row-order"): iterate g, d, z with z innermost, making psi
accesses unit-stride.  Speedups of 94.6x / 11.1x (loop only) follow.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import (
    Array1D, Array3D, LoopBody, TraceWorkload, in_sequence, outer_blocks, sites,
)

#: Problem shape: groups x directions x zones.  D * Z * 8 = 32 KiB, a
#: multiple of the 4 KiB mapping period — the conflict condition.
DEFAULT_GROUPS = 32
DEFAULT_DIRECTIONS = 32
DEFAULT_ZONES = 128


class KripkeWorkload(TraceWorkload):
    """The particle-edit reduction, column order (original) or row order.

    Args:
        groups: Energy groups (G).
        directions: Angular directions (D).
        zones: Spatial zones (Z).
        row_order: False = the original conflicting nest (z, d, g);
            True = the optimized nest (g, d, z).
        sweeps: Number of kernel invocations.
    """

    def __init__(
        self,
        groups: int = DEFAULT_GROUPS,
        directions: int = DEFAULT_DIRECTIONS,
        zones: int = DEFAULT_ZONES,
        row_order: bool = False,
        sweeps: int = 2,
    ) -> None:
        super().__init__()
        if min(groups, directions, zones, sweeps) <= 0:
            raise ValueError("all dimensions and sweeps must be positive")
        self.groups = groups
        self.directions = directions
        self.zones = zones
        self.row_order = row_order
        self.sweeps = sweeps
        self.name = f"kripke{'-roworder' if row_order else ''}"
        # psi(g, d, z): dim0 = g, dim1 = d, dim2 = z.
        self.psi = Array3D.allocate(
            self.allocator, "psi", groups, directions, zones, elem_size=8
        )
        self.volume = Array1D.allocate(self.allocator, "volume", zones, 8)
        self.direction_weights = Array1D.allocate(self.allocator, "dirs_w", directions, 8)
        function = self.builder.function("particle_edit", file="Kripke/Kernel.cpp")
        function.begin_loop(line=1, label="zones")
        self.ip_vol = function.add_statement(line=2)
        function.begin_loop(line=3, label="directions")
        self.ip_w = function.add_statement(line=4)
        function.begin_loop(line=5, label="groups")
        self.ip_psi = function.add_statement(line=6)
        function.end_loop()
        function.end_loop()
        function.end_loop()
        function.finish()

    @classmethod
    def original(cls, **kwargs: Any) -> "KripkeWorkload":
        """The conflicting column-order nest of Listing 4."""
        return cls(row_order=False, **kwargs)

    @classmethod
    def optimized(cls, **kwargs: Any) -> "KripkeWorkload":
        """The paper's row-order transformation."""
        return cls(row_order=True, **kwargs)

    def trace(self) -> Iterator[TraceBatch]:
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of the outermost loop."""
        psi, volume, weights = self.psi, self.volume, self.direction_weights
        load_w = (self.ip_w, AccessKind.LOAD)
        load_vol = (self.ip_vol, AccessKind.LOAD)
        load_psi = (self.ip_psi, AccessKind.LOAD)
        groups, zones = np.arange(self.groups), np.arange(self.zones)
        d = np.arange(self.directions)[:, None]
        # One outermost iteration (a g, or a z) of the imperfect nest.
        if self.row_order:
            body = LoopBody(
                ([load_w] + [load_vol, load_psi] * self.zones) * self.directions, size=8
            )
        else:
            body = LoopBody(
                [load_vol] + ([load_w] + [load_psi] * self.groups) * self.directions, size=8
            )
        for _sweep in range(self.sweeps):
            if self.row_order:
                # Optimized: z innermost matches psi's layout (unit stride).
                for block in outer_blocks(groups, len(body)):
                    g = block[:, None, None]
                    yield body.batch(in_sequence(
                        weights.addr(d[None]),
                        sites(volume.addr(zones), psi.addr(g, d, zones)),
                        ndim=2,
                    ))
            else:
                # Original: g innermost jumps D*Z*8 bytes per step.
                for block in outer_blocks(zones, len(body)):
                    z = block[:, None, None]
                    yield body.batch(in_sequence(
                        volume.addr(block[:, None]),
                        in_sequence(weights.addr(d[None]), psi.addr(groups, d, z), ndim=2),
                    ))
