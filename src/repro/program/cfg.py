"""Basic blocks and control-flow graphs.

A :class:`ControlFlowGraph` is the unit the loop analyses operate on — one
per function, rooted at an entry block.  Blocks carry instruction-address
ranges so profiler samples (IPs) resolve back to blocks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ProgramImageError


@dataclass
class BasicBlock:
    """One basic block.

    Attributes:
        block_id: Dense integer id, unique within the CFG.
        start_ip: First instruction address (inclusive).
        end_ip: One past the last instruction address.
        label: Optional human-readable name for debugging/tests.
    """

    block_id: int
    start_ip: int = 0
    end_ip: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_ip < self.start_ip:
            raise ProgramImageError(
                f"block {self.block_id}: end_ip {self.end_ip:#x} precedes "
                f"start_ip {self.start_ip:#x}"
            )

    def contains_ip(self, ip: int) -> bool:
        """Whether an instruction address falls inside this block."""
        return self.start_ip <= ip < self.end_ip

    def __hash__(self) -> int:
        return hash(self.block_id)


@dataclass
class ControlFlowGraph:
    """A rooted control-flow graph over :class:`BasicBlock` nodes."""

    entry: int = 0
    _blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    _successors: Dict[int, List[int]] = field(default_factory=dict)
    _predecessors: Dict[int, List[int]] = field(default_factory=dict)
    #: Sorted (start_ips, blocks) lookup index; None = stale/unbuilt.
    _ip_index: Optional[Tuple[List[int], List[BasicBlock]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert a block; ids must be unique."""
        if block.block_id in self._blocks:
            raise ProgramImageError(f"duplicate block id {block.block_id}")
        self._blocks[block.block_id] = block
        self._successors.setdefault(block.block_id, [])
        self._predecessors.setdefault(block.block_id, [])
        self.invalidate_ip_index()
        return block

    def new_block(self, start_ip: int = 0, end_ip: int = 0, label: str = "") -> BasicBlock:
        """Create and insert a block with the next free id."""
        block_id = max(self._blocks, default=-1) + 1
        return self.add_block(BasicBlock(block_id, start_ip, end_ip, label))

    def add_edge(self, source: int, target: int) -> None:
        """Insert a directed edge; both endpoints must exist."""
        if source not in self._blocks or target not in self._blocks:
            raise ProgramImageError(f"edge {source}->{target} references unknown block")
        if target not in self._successors[source]:
            self._successors[source].append(target)
            self._predecessors[target].append(source)

    def block(self, block_id: int) -> BasicBlock:
        """Look up a block by id."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise ProgramImageError(f"no block with id {block_id}") from None

    def successors(self, block_id: int) -> Sequence[int]:
        """Successor block ids of ``block_id``."""
        return tuple(self._successors.get(block_id, ()))

    def predecessors(self, block_id: int) -> Sequence[int]:
        """Predecessor block ids of ``block_id``."""
        return tuple(self._predecessors.get(block_id, ()))

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self._blocks.values())

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def validate(self) -> None:
        """Check structural invariants (entry exists, no dangling edges)."""
        if self.entry not in self._blocks:
            raise ProgramImageError(f"entry block {self.entry} does not exist")
        for source, targets in self._successors.items():
            for target in targets:
                if target not in self._blocks:
                    raise ProgramImageError(f"dangling edge {source}->{target}")

    def depth_first_order(self) -> Tuple[List[int], Dict[int, int]]:
        """Iterative DFS preorder from the entry.

        Returns:
            (preorder list of block ids, block id -> preorder number).
            Unreachable blocks are absent.
        """
        order: List[int] = []
        number: Dict[int, int] = {}
        stack: List[Tuple[int, Iterator[int]]] = []
        if self.entry in self._blocks:
            number[self.entry] = 0
            order.append(self.entry)
            stack.append((self.entry, iter(self._successors[self.entry])))
        while stack:
            _node, successor_iter = stack[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in number:
                    number[successor] = len(order)
                    order.append(successor)
                    stack.append((successor, iter(self._successors[successor])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
        return order, number

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder from the entry (the order dataflow wants)."""
        postorder: List[int] = []
        visited: Set[int] = set()
        stack: List[Tuple[int, Iterator[int]]] = []
        if self.entry in self._blocks:
            visited.add(self.entry)
            stack.append((self.entry, iter(self._successors[self.entry])))
        while stack:
            node, successor_iter = stack[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(self._successors[successor])))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()
        return list(reversed(postorder))

    def reachable_blocks(self) -> Set[int]:
        """Ids of blocks reachable from the entry."""
        order, _ = self.depth_first_order()
        return set(order)

    def invalidate_ip_index(self) -> None:
        """Drop the sorted IP index.

        Must be called whenever a block's ``start_ip``/``end_ip`` is mutated
        after insertion (the builder does this when it splits blocks);
        ``add_block`` calls it automatically.
        """
        self._ip_index = None

    def _build_ip_index(self) -> Tuple[List[int], List[BasicBlock]]:
        """Sorted (start_ips, blocks) over non-empty blocks."""
        blocks = sorted(
            (b for b in self._blocks.values() if b.end_ip > b.start_ip),
            key=lambda b: b.start_ip,
        )
        index = ([b.start_ip for b in blocks], blocks)
        self._ip_index = index
        return index

    def block_at_ip(self, ip: int) -> Optional[BasicBlock]:
        """The block whose address range covers ``ip``, or None.

        Binary search over a lazily built index sorted by ``start_ip``
        (block ranges never overlap — they are carved from one monotonic
        text cursor), rebuilt after any block insertion or range mutation.
        """
        index = self._ip_index
        if index is None:
            index = self._build_ip_index()
        starts, blocks = index
        position = bisect_right(starts, ip) - 1
        if position >= 0 and blocks[position].contains_ip(ip):
            return blocks[position]
        return None

    def _block_at_ip_linear(self, ip: int) -> Optional[BasicBlock]:
        """Reference linear scan — kept as the oracle for regression tests."""
        for block in self._blocks.values():
            if block.contains_ip(ip):
                return block
        return None
