"""Affine loop nests, declared once.

A kernel is a tree of :class:`Loop` and :class:`Stmt` nodes; each statement
lists its access sites (:func:`load`, :func:`store`) in program order, with
subscripts affine in the loop indices (``i - 1``, ``jb + 1``).  A
:class:`LoopNest` derives from that one declaration:

- the image loops: ``begin_loop``/``add_statement``/``end_loop`` in
  declaration order, so Havlak analysis recovers exactly this nest;
- the trace: :class:`~repro.trace.batch.TraceBatch` runs, each site's
  addresses broadcast over a run of outermost iterations
  (:func:`~repro.workloads.base.outer_blocks`, :class:`LoopBody`,
  :func:`~repro.trace.batch.rebatch`);
- one :class:`AffineAccess` per site: a ``repeat`` dimension (sweeps,
  steps), then each enclosing loop, outermost first.

The symmetrization kernel, for example::

    i, j = Loop(3, 0, n), Loop(4, 0, n)
    nest = LoopNest(builder.function("symmetrize", file="symm.c"),
                    i(j(Stmt(5, load(a, i, j), load(a, j, i), store(a, i, j)))),
                    repeat=sweeps)
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.descriptors import AccessDim, AffineAccess
from repro.program.builder import FunctionBuilder
from repro.trace.batch import TraceBatch, rebatch
from repro.trace.record import AccessKind
from repro.workloads.base import Index, LoopBody, outer_blocks

#: Loop index values by loop: Python ints, or NumPy arrays that broadcast.
Env = Mapping["Loop", Index]


class Affine:
    """``sum(coef * index)`` over loop indices; key ``None`` is the constant."""

    def __init__(self, terms: Dict[Optional["Loop"], int]) -> None:
        self.terms = terms

    def __add__(self, other: "Subscript") -> "Affine":
        terms = dict(self.terms)
        for loop, coef in _affine(other).terms.items():
            terms[loop] = terms.get(loop, 0) + coef
        return Affine(terms)

    def __sub__(self, other: "Subscript") -> "Affine":
        return self + Affine({loop: -coef for loop, coef in _affine(other).terms.items()})

    def at(self, env: Env) -> Index:
        """The value at the loop indices ``env``."""
        value: Index = 0
        for loop, coef in self.terms.items():
            value = value + coef * (1 if loop is None else env[loop])
        return value


#: An array subscript: a constant, a loop index or an affine expression.
Subscript = Union[int, Affine]


def _affine(subscript: Subscript) -> Affine:
    return subscript if isinstance(subscript, Affine) else Affine({None: int(subscript)})


class Site(NamedTuple):
    """One access of a statement: ``array[subscripts...]``."""

    array: Any  # Array1D/2D/3D or alike: ``allocation``, ``elem_size``, ``addr``
    subscripts: Tuple[Affine, ...]
    kind: AccessKind

    def address(self, env: Env) -> Index:
        """The element's address at the loop indices ``env``."""
        return self.array.addr(*(subscript.at(env) for subscript in self.subscripts))


def load(array: Any, *subscripts: Subscript) -> Site:
    """A read of ``array[subscripts...]``."""
    return Site(array, tuple(map(_affine, subscripts)), AccessKind.LOAD)


def store(array: Any, *subscripts: Subscript) -> Site:
    """A write of ``array[subscripts...]``."""
    return Site(array, tuple(map(_affine, subscripts)), AccessKind.STORE)


class Stmt:
    """A source statement issuing ``sites`` in order from one IP.

    ``count`` is the statement's instruction count in the image; its IP is
    set when a :class:`LoopNest` declares it.
    """

    def __init__(self, line: int, *sites: Site, count: int = 1) -> None:
        self.line = line
        self.sites = sites
        self.count = count
        self.ip = -1


class Loop(Affine):
    """``for (index = start; index != stop; index += step)`` headed at
    ``line``; the loop is also its own index in subscripts.  Calling it
    with the body's nodes sets the body and returns the loop."""

    def __init__(self, line: int, start: int, stop: int, step: int = 1,
                 label: str = "") -> None:
        super().__init__({self: 1})
        self.line = line
        self.label = label
        self.values = np.arange(start, stop, step)
        self.body: Tuple[Node, ...] = ()

    def __call__(self, *body: "Node") -> "Loop":
        self.body = body
        return self


Node = Union[Stmt, Loop]


class LoopNest:
    """A kernel's loops, declared into ``function`` and run ``repeat``
    times.  :attr:`ips` holds the statements' IPs in declaration order.
    Every site of a nest accesses elements of one size."""

    def __init__(self, function: FunctionBuilder, *loops: Loop, repeat: int = 1) -> None:
        self.function = function.name
        self.loops = loops
        self.repeat = repeat
        #: Each statement with its enclosing loops, outermost first.
        self.statements: List[Tuple[Stmt, Tuple[Loop, ...]]] = []
        self._declare(function, loops, ())
        function.finish()
        self.ips = tuple(stmt.ip for stmt, _ in self.statements)
        sizes = {site.array.elem_size for stmt, _ in self.statements for site in stmt.sites}
        if len(sizes) != 1:
            raise ValueError(f"a nest's sites must share one element size: {sorted(sizes)}")
        (self.size,) = sizes

    def _declare(self, function: FunctionBuilder, nodes: Sequence[Node],
                 loops: Tuple[Loop, ...]) -> None:
        for node in nodes:
            if isinstance(node, Stmt):
                node.ip = function.add_statement(node.line, count=node.count)
                self.statements.append((node, loops))
            else:
                function.begin_loop(node.line, node.label)
                self._declare(function, node.body, loops + (node,))
                function.end_loop()

    def trace(self) -> Iterator[TraceBatch]:
        """The kernel's accesses as exact-size batches."""
        return rebatch(self._chunks())

    def _chunks(self) -> Iterator[TraceBatch]:
        """Runs of outermost iterations, one loop after another."""
        runs: List[Tuple[Loop, LoopBody, int, List[np.ndarray]]] = []
        for loop in self.loops:
            body, records = LoopBody(_unit(loop.body), self.size), _records(loop.body)
            runs.append((loop, body, records, list(outer_blocks(loop.values, records))))
        for _ in range(self.repeat):
            for loop, body, records, blocks in runs:
                for block in blocks:
                    addresses = np.empty((block.size, records), dtype=np.int64)
                    _fill(addresses, loop.body, {loop: block})
                    yield body.batch(addresses)

    def access_patterns(self) -> List[AffineAccess]:
        """One descriptor per site: the ``repeat`` dimension, then each
        enclosing loop (the step times the subscripts' coefficients),
        based at the first element the site touches."""
        accesses: List[AffineAccess] = []
        for stmt, loops in self.statements:
            first = {loop: int(loop.values[0]) for loop in loops}
            for site in stmt.sites:
                base = int(site.address(first))
                dims = [AccessDim(stride=0, extent=self.repeat)]
                for loop in loops:
                    trips = loop.values.size
                    second = {**first, loop: int(loop.values[min(1, trips - 1)])}
                    dims.append(AccessDim(int(site.address(second)) - base, trips))
                accesses.append(AffineAccess(
                    ip=stmt.ip, label=site.array.allocation.label, base=base,
                    elem_size=site.array.elem_size, dims=tuple(dims),
                    kind="store" if site.kind == AccessKind.STORE else "load",
                ))
        return accesses


def _records(nodes: Sequence[Node]) -> int:
    """The number of accesses of one iteration over ``nodes``."""
    return sum(len(node.sites) if isinstance(node, Stmt)
               else node.values.size * _records(node.body) for node in nodes)


def _unit(nodes: Sequence[Node]) -> List[Tuple[int, AccessKind]]:
    """The ``(ip, kind)`` of the accesses of one iteration over
    ``nodes``, as a shortest repeating unit: a body that is a single loop
    repeats that loop's own body."""
    if len(nodes) == 1 and isinstance(nodes[0], Loop):
        return _unit(nodes[0].body)
    sites: List[Tuple[int, AccessKind]] = []
    for node in nodes:
        if isinstance(node, Stmt):
            sites += [(node.ip, site.kind) for site in node.sites]
        else:
            unit = _unit(node.body)
            sites += unit * (node.values.size * _records(node.body) // len(unit))
    return sites


def _fill(out: np.ndarray, nodes: Sequence[Node], env: Dict[Loop, np.ndarray]) -> None:
    """Write the addresses of ``nodes`` over the enclosing iterations in
    ``env`` into ``out``: ``(*iterations, records)``, one axis per loop,
    records in program order.  An inner loop's index takes a new last axis;
    the loop fills its columns of ``out`` split into ``(trips, records)``,
    a view, since splitting the last axis never copies."""
    column = 0
    for node in nodes:
        if isinstance(node, Stmt):
            for site in node.sites:
                out[..., column] = site.address(env)
                column += 1
        else:
            inner = {loop: values[..., None] for loop, values in env.items()}
            inner[node] = node.values
            records = node.values.size * _records(node.body)
            columns = out[..., column:column + records]
            _fill(columns.reshape(out.shape[:-1] + (node.values.size, -1)), node.body, inner)
            column += records

