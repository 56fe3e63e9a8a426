"""Loop-nest declarations (``repro.workloads.nest``) and the static
descriptors of every workload.

- Exactness: for every workload that declares descriptors, the addresses
  the descriptors enumerate equal the trace's, as a multiset per
  ``(ip, kind)``.
- Havlak round trip: loop recovery over the image a nest declares returns
  the declared nest, and each statement resolves to its own loop.
- The descriptors the nest derives predict the case studies' conflicts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest

from repro.analysis import AnalysisCache, ConflictPredictionAnalysis, StaticModel
from repro.analysis.descriptors import AffineAccess
from repro.program.builder import ImageBuilder
from repro.program.symbols import Symbolizer
from repro.trace.allocator import VirtualAllocator
from repro.trace.batch import TraceBatch, as_batches
from repro.trace.record import AccessKind
from repro.workloads.adi import AdiWorkload
from repro.workloads.base import Array1D, Array2D, TraceWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load, store
from repro.workloads.polybench import Jacobi2dWorkload
from repro.workloads.registry import WORKLOADS, resolve_workload

#: Small sizes of every registered workload that declares descriptors.
EXACT_SIZES: Dict[str, Dict[str, object]] = {
    "symmetrization": {"n": 7, "sweeps": 3},
    "adi": {"n": 6, "steps": 2},
    "tinydnn": {"in_size": 7, "out_size": 5},
    "kripke": {"groups": 3, "directions": 5, "zones": 7, "sweeps": 2},
    "himeno": {"dims": (5, 9, 6), "iterations": 2},
    "gemm": {"n": 6},
    "2mm": {"n": 5},
    "fdtd-2d": {"n": 6},
    "jacobi-2d": {"n": 7},
}

#: Workloads whose descriptors deliberately approximate the trace.
APPROXIMATE = {
    "trmm": "declares the n x n rectangle over the triangle its k loop walks "
            "(TrmmWorkload.access_patterns)",
    "nw": "declares the anti-diagonal tile wavefront as full rectangles of tiles "
          "(NeedlemanWunschWorkload.access_patterns)",
}

#: Workloads that declare no descriptors at all.
UNDECLARED = {"fft", "lru_stream"}

NEST_STUDIES = {
    "symmetrization": {"n": 7, "sweeps": 1},
    "adi": {"n": 6, "steps": 1},
    "tinydnn": {"in_size": 7, "out_size": 5},
    "kripke": {"groups": 3, "directions": 5, "zones": 7, "sweeps": 1},
    "himeno": {"dims": (5, 9, 6), "iterations": 1},
}


def _variants(sizes: Dict[str, Dict[str, object]]) -> List[object]:
    return [
        pytest.param(spec, params, id=spec)
        for name, params in sizes.items()
        for spec in (name, f"{name}:optimized")
    ]


def _enumerate(access: AffineAccess) -> np.ndarray:
    """Every address the descriptor touches, one per access."""
    addresses = np.array([access.base], dtype=np.int64)
    for dim in access.dims:
        addresses = (addresses[:, None] + dim.stride * np.arange(dim.extent)).ravel()
    return addresses


def _assert_descriptors_match_trace(workload) -> None:
    declared: Dict[Tuple[int, int], List[np.ndarray]] = defaultdict(list)
    for access in workload.access_patterns():
        kind = AccessKind.STORE if access.kind == "store" else AccessKind.LOAD
        declared[(access.ip, int(kind))].append(_enumerate(access))
    trace = TraceBatch.concat(as_batches(workload.trace()))
    traced = {
        (int(ip), int(kind)): np.sort(
            trace.address[(trace.ip == ip) & (trace.kind == kind)].astype(np.int64)
        )
        for ip, kind in {(int(ip), int(kind)) for ip, kind in zip(trace.ip, trace.kind)}
    }
    assert sorted(declared) == sorted(traced)
    for key, parts in declared.items():
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), traced[key],
                                      err_msg=f"ip {key[0]:#x} kind {key[1]}")


def test_every_workload_is_classified():
    """A new workload lands in exactly one of the three groups."""
    groups = [set(EXACT_SIZES), set(APPROXIMATE), UNDECLARED]
    assert set().union(*groups) == set(WORKLOADS)
    assert sum(len(group) for group in groups) == len(WORKLOADS)
    for name in UNDECLARED:
        assert resolve_workload(name).access_patterns() == []


@pytest.mark.parametrize("spec,params", _variants(EXACT_SIZES))
def test_descriptors_enumerate_the_trace(spec, params):
    _assert_descriptors_match_trace(resolve_workload(spec, **params))


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_jacobi_descriptors_follow_the_array_swap(steps):
    """The arrays trade roles every step; the descriptors say so."""
    _assert_descriptors_match_trace(Jacobi2dWorkload(n=16, steps=steps))


# -- Havlak round trip -------------------------------------------------------


def _declared_loops(
    nodes, parent: Optional[int] = None
) -> Iterator[Tuple[int, Optional[int], str]]:
    for node in nodes:
        if isinstance(node, Loop):
            yield node.line, parent, node.label or f"loop@{node.line}"
            yield from _declared_loops(node.body, node.line)


@pytest.mark.parametrize("spec,params", _variants(NEST_STUDIES))
def test_havlak_recovers_the_declared_nest(spec, params):
    workload = resolve_workload(spec, **params)
    nest, image = workload.nest, workload.image
    function = image.function_named(nest.function)

    def line(block_id: int) -> int:
        return function.location_of_block(block_id).line

    recovered = [
        (line(loop.header), None if loop.parent is None else line(loop.parent.header),
         function.cfg.block(loop.header).label)
        for loop in image.loop_forest(nest.function).loops
    ]
    assert sorted(recovered, key=str) == sorted(_declared_loops(nest.loops), key=str)

    (file,) = {location.file for location in function.locations.values()}
    symbolizer = Symbolizer(image)
    assert nest.ips == tuple(stmt.ip for stmt, _ in nest.statements)
    for stmt, loops in nest.statements:
        info = symbolizer.resolve(stmt.ip)
        assert info.loop_name == f"{file}:{loops[-1].line}"
        assert info.location.line == stmt.line


def test_kripke_image_follows_the_nest_that_runs():
    """Row order puts z innermost: psi's statement resolves to the zone loop."""
    original = resolve_workload("kripke", **NEST_STUDIES["kripke"])
    optimized = resolve_workload("kripke:optimized", **NEST_STUDIES["kripke"])
    assert Symbolizer(original.image).resolve(original.ip_psi).loop_name == (
        "Kripke/Kernel.cpp:5"
    )
    assert Symbolizer(optimized.image).resolve(optimized.ip_psi).loop_name == (
        "Kripke/Kernel.cpp:1"
    )


# -- derived descriptors -----------------------------------------------------


def _predicts_conflict(workload) -> bool:
    cache = AnalysisCache(StaticModel.from_workload(workload))
    return cache.request(ConflictPredictionAnalysis).report.has_conflicts


@pytest.mark.parametrize("name", ["tinydnn", "kripke"])
def test_derived_descriptors_predict_the_fix(name):
    assert _predicts_conflict(resolve_workload(name))
    assert not _predicts_conflict(resolve_workload(f"{name}:optimized"))


def test_descending_loop_descriptors_descend():
    """ADI's back substitution runs j down: the descriptor starts at the
    first element touched and strides backwards."""
    workload = AdiWorkload(n=8)
    back = [a for a in workload.access_patterns() if a.ip == workload.ip_col_back]
    p_row, _q_row, v_next, v_store = back
    assert p_row.base == workload.p.addr(1, 6)
    assert [dim.stride for dim in p_row.dims] == [0, workload.p.pitch, -8]
    assert v_next.base == workload.v.addr(7, 1)
    assert [dim.stride for dim in v_store.dims] == [0, 8, -workload.v.pitch]
    assert [dim.extent for dim in v_store.dims] == [1, 6, 6]


def test_nest_with_affine_subscripts():
    """Offsets, differences of indices, a stepped loop and an imperfect
    nest."""
    allocator = VirtualAllocator()
    grid = Array2D.allocate(allocator, "grid", 6, 10, elem_size=8)
    flags = Array1D.allocate(allocator, "flags", 20, elem_size=8)
    i, j = Loop(1, 1, 5, label="rows"), Loop(2, 0, 4, 2)
    head = Stmt(3, load(flags, i - 1))
    body = Stmt(4, load(grid, i + 1, j + 5 - i), store(flags, i - j + 3), count=2)
    nest = LoopNest(ImageBuilder().function("kernel", file="k.c"), i(head, j(body)), repeat=2)
    assert nest.ips == (head.ip, body.ip)

    expected = [
        record
        for _ in range(2)
        for row in range(1, 5)
        for record in [(head.ip, flags.addr(row - 1), 0, 8)] + [
            site
            for col in range(0, 4, 2)
            for site in ((body.ip, grid.addr(row + 1, col + 5 - row), 0, 8),
                         (body.ip, flags.addr(row - col + 3), 1, 8))
        ]
    ]
    trace = TraceBatch.concat(list(nest.trace()))
    assert list(zip(trace.ip.tolist(), trace.address.tolist(), trace.kind.tolist(),
                    trace.size.tolist())) == expected

    by_site = nest.access_patterns()
    assert [(a.label, a.kind, a.elem_size) for a in by_site] == [
        ("flags", "load", 8), ("grid", "load", 8), ("flags", "store", 8)
    ]
    assert [(d.stride, d.extent) for d in by_site[1].dims] == [(0, 2), (72, 4), (16, 2)]
    assert [(d.stride, d.extent) for d in by_site[2].dims] == [(0, 2), (8, 4), (-16, 2)]
    assert by_site[2].base == flags.addr(4)


def test_nest_rejects_mixed_element_sizes():
    allocator = VirtualAllocator()
    wide = Array1D.allocate(allocator, "wide", 8, elem_size=8)
    narrow = Array1D.allocate(allocator, "narrow", 8, elem_size=4)
    i = Loop(1, 0, 8)
    with pytest.raises(ValueError, match="one element size"):
        LoopNest(ImageBuilder().function("kernel", file="k.c"),
                 i(Stmt(2, load(wide, i), store(narrow, i))))


def test_workload_without_trace_or_nest_fails_when_built():
    """``trace()`` is abstract: a workload that neither implements it nor
    derives it from a nest cannot be built."""

    class Bare(TraceWorkload):
        pass

    with pytest.raises(TypeError, match="trace"):
        Bare()
