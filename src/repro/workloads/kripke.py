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

from typing import Any

from repro.workloads.base import Array1D, Array3D, NestWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load

#: Problem shape: groups x directions x zones.  D * Z * 8 = 32 KiB, a
#: multiple of the 4 KiB mapping period — the conflict condition.
DEFAULT_GROUPS = 32
DEFAULT_DIRECTIONS = 32
DEFAULT_ZONES = 128


class KripkeWorkload(NestWorkload):
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
        g = Loop(5, 0, groups, label="groups")
        d = Loop(3, 0, directions, label="directions")
        z = Loop(1, 0, zones, label="zones")
        vol = Stmt(2, load(self.volume, z))
        w = Stmt(4, load(self.direction_weights, d))
        psi = Stmt(6, load(self.psi, g, d, z))
        # Original: g innermost jumps D*Z*8 bytes per step.  Optimized: z
        # innermost matches psi's layout (unit stride).
        self.nest = LoopNest(
            self.builder.function("particle_edit", file="Kripke/Kernel.cpp"),
            g(d(w, z(vol, psi))) if row_order else z(vol, d(w, g(psi))),
            repeat=sweeps,
        )
        self.ip_vol, self.ip_w, self.ip_psi = vol.ip, w.ip, psi.ip

    @classmethod
    def original(cls, **kwargs: Any) -> "KripkeWorkload":
        """The conflicting column-order nest of Listing 4."""
        return cls(row_order=False, **kwargs)

    @classmethod
    def optimized(cls, **kwargs: Any) -> "KripkeWorkload":
        """The paper's row-order transformation."""
        return cls(row_order=True, **kwargs)
