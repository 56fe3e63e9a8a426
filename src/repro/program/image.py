"""Program images: the analyzer's view of a binary.

A :class:`ProgramImage` stands in for the machine code CCProf's offline
analyzer decodes: a set of functions, each with a CFG whose basic blocks
carry instruction-address ranges and source locations.  Loop structure is
*not* stored — it is recovered by running Havlak interval analysis on the
CFGs, exactly as the paper's analyzer does, so the loop-detection code path
is genuinely exercised.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import ProgramImageError
from repro.program.cfg import BasicBlock, ControlFlowGraph
from repro.program.loops import Loop, LoopNestingForest, havlak_loops


@dataclass(frozen=True)
class SourceLocation:
    """A source coordinate, e.g. ``needle.cpp:189``."""

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass
class Function:
    """One function: a CFG plus block-level source locations.

    Attributes:
        name: Symbol name.
        cfg: Control-flow graph of the function.
        locations: Source location per block id (optional per block;
            anonymous blocks model closed-source code like MKL, §6.3).
    """

    name: str
    cfg: ControlFlowGraph
    locations: Dict[int, SourceLocation] = field(default_factory=dict)

    def location_of_block(self, block_id: int) -> Optional[SourceLocation]:
        """Source location of a block, or None for anonymous blocks."""
        return self.locations.get(block_id)

    def address_range(self) -> Tuple[int, int]:
        """(lowest start_ip, highest end_ip) over all blocks."""
        starts = [block.start_ip for block in self.cfg if block.end_ip > block.start_ip]
        ends = [block.end_ip for block in self.cfg if block.end_ip > block.start_ip]
        if not starts:
            raise ProgramImageError(f"function {self.name!r} has no sized blocks")
        return min(starts), max(ends)


class ProgramImage:
    """Functions + a fast IP index, the input to offline analysis."""

    def __init__(self, functions: Optional[List[Function]] = None) -> None:
        self.functions: List[Function] = list(functions or [])
        self._index_built = False
        self._starts: List[int] = []
        self._entries: List[Tuple[int, Function, BasicBlock]] = []

    def _build_index(self) -> None:
        entries: List[Tuple[int, Function, BasicBlock]] = []
        for function in self.functions:
            for block in function.cfg:
                if block.end_ip > block.start_ip:
                    entries.append((block.start_ip, function, block))
        entries.sort(key=lambda entry: entry[0])
        for index in range(1, len(entries)):
            previous = entries[index - 1]
            current = entries[index]
            if previous[2].end_ip > current[0]:
                raise ProgramImageError(
                    f"overlapping blocks: {previous[1].name}/{previous[2].block_id} "
                    f"and {current[1].name}/{current[2].block_id}"
                )
        self._entries = entries
        self._starts = [entry[0] for entry in entries]
        self._index_built = True

    def resolve_ip(self, ip: int) -> Optional[Tuple[Function, BasicBlock]]:
        """Map an instruction pointer to (function, block), or None."""
        if not self._index_built:
            self._build_index()
        index = bisect.bisect_right(self._starts, ip) - 1
        if index < 0:
            return None
        _, function, block = self._entries[index]
        return (function, block) if block.contains_ip(ip) else None

    def function_named(self, name: str) -> Function:
        """Look up a function by symbol name."""
        for function in self.functions:
            if function.name == name:
                return function
        raise ProgramImageError(f"no function named {name!r}")

    @lru_cache(maxsize=None)
    def loop_forest(self, function_name: str) -> LoopNestingForest:
        """Havlak loop-nesting forest of one function (cached).

        This is the interval analysis the paper's analyzer runs over the
        recovered CFG.
        """
        function = self.function_named(function_name)
        return havlak_loops(function.cfg)

    def innermost_loop_at_ip(self, ip: int) -> Optional[Loop]:
        """The innermost loop whose body covers ``ip``, or None."""
        resolved = self.resolve_ip(ip)
        if resolved is None:
            return None
        function, block = resolved
        return self.loop_forest(function.name).innermost_loop(block.block_id)

    def loop_name(self, function: Function, loop: Loop) -> str:
        """Human name of a loop: its header's ``file:line``.

        Matches the paper's reporting style (``needle.cpp:189``).  Loops
        over anonymous code report ``<function>@<header-ip>`` the way CCProf
        labels MKL's closed-source blocks.
        """
        location = function.location_of_block(loop.header)
        if location is not None:
            return str(location)
        header_ip = function.cfg.block(loop.header).start_ip
        return f"{function.name}@{header_ip:#x}"
