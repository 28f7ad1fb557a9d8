"""Natural-loop detection (LoopInfo).

The Roofline instrumentation pass operates on *loop nests*: it asks LoopInfo
for the top-level loops of each function and instruments each one as a unit.
Loops are discovered the classical way -- a back edge is an edge whose target
dominates its source; the natural loop of a back edge is the set of blocks
that can reach the source without passing through the header.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler.analysis.cfg import predecessors
from repro.compiler.analysis.dominators import DominatorTree
from repro.compiler.ir.instructions import Instruction
from repro.compiler.ir.module import BasicBlock, Function


class Loop:
    """One natural loop: a header plus its body blocks, with nesting links."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []
        #: Blocks inside the loop with an edge leaving the loop.
        self.exiting_blocks: List[BasicBlock] = []
        #: Blocks outside the loop that are targets of edges from inside.
        self.exit_blocks: List[BasicBlock] = []
        #: The unique predecessor of the header from outside the loop, if any.
        self.preheader: Optional[BasicBlock] = None
        #: Blocks with a back edge to the header.
        self.latches: List[BasicBlock] = []

    # -- structure queries ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for a top-level loop."""
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def innermost_loops(self) -> List["Loop"]:
        """All innermost (leaf) loops in this loop's nest, including itself."""
        if not self.subloops:
            return [self]
        leaves: List[Loop] = []
        for sub in self.subloops:
            leaves.extend(sub.innermost_loops())
        return leaves

    def nest_size(self) -> int:
        """Number of loops in this nest (self plus all transitive subloops)."""
        return 1 + sum(sub.nest_size() for sub in self.subloops)

    def instructions(self) -> List[Instruction]:
        out: List[Instruction] = []
        for block in self.blocks:
            out.extend(block.instructions)
        return out

    @property
    def single_exit_block(self) -> Optional[BasicBlock]:
        unique = set(self.exit_blocks)
        return next(iter(unique)) if len(unique) == 1 else None

    def header_line(self) -> int:
        """Best-effort source line of the loop (from header instructions)."""
        for inst in self.header.instructions:
            if inst.location:
                return inst.location.line
        return 0

    def header_file(self) -> str:
        for inst in self.header.instructions:
            if inst.location:
                return inst.location.filename
        return ""

    def __repr__(self) -> str:
        return (
            f"Loop(header={self.header.name}, blocks={len(self.blocks)}, "
            f"depth={self.depth}, subloops={len(self.subloops)})"
        )


class LoopInfo:
    """Loop forest of one function."""

    def __init__(self, function: Function, domtree: Optional[DominatorTree] = None):
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self.top_level_loops: List[Loop] = []
        self._loop_of_block: Dict[BasicBlock, Loop] = {}
        self._discover()

    # -- discovery ----------------------------------------------------------------------

    def _discover(self) -> None:
        if self.function.is_declaration:
            return
        preds = predecessors(self.function)

        # Find back edges and build one loop per header.
        loops_by_header: Dict[BasicBlock, Loop] = {}
        for block in self.function.blocks:
            for successor in block.successors():
                if self.domtree.dominates(successor, block):
                    loop = loops_by_header.setdefault(successor, Loop(successor))
                    loop.latches.append(block)
                    self._collect_body(loop, block, preds)

        loops = list(loops_by_header.values())

        # Establish nesting: a loop is a subloop of the smallest loop that
        # strictly contains it.
        loops.sort(key=lambda l: len(l.blocks))
        for i, inner in enumerate(loops):
            for outer in loops[i + 1:]:
                if outer is not inner and inner.blocks < outer.blocks:
                    inner.parent = outer
                    outer.subloops.append(inner)
                    break
        self.top_level_loops = [l for l in loops if l.parent is None]

        # Map blocks to their innermost loop.
        for loop in sorted(loops, key=lambda l: len(l.blocks), reverse=True):
            for block in loop.blocks:
                self._loop_of_block[block] = loop

        for loop in loops:
            self._compute_exits(loop)
            self._compute_preheader(loop, preds)

    def _collect_body(self, loop: Loop, latch: BasicBlock,
                      preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
        """Blocks that reach *latch* without passing through the header."""
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            for pred in preds.get(block, []):
                if pred not in loop.blocks:
                    stack.append(pred)

    def _compute_exits(self, loop: Loop) -> None:
        exiting: List[BasicBlock] = []
        exits: List[BasicBlock] = []
        for block in loop.blocks:
            for successor in block.successors():
                if successor not in loop.blocks:
                    if block not in exiting:
                        exiting.append(block)
                    if successor not in exits:
                        exits.append(successor)
        loop.exiting_blocks = exiting
        loop.exit_blocks = exits

    def _compute_preheader(self, loop: Loop,
                           preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
        outside_preds = [
            p for p in preds.get(loop.header, []) if p not in loop.blocks
        ]
        if len(outside_preds) == 1:
            candidate = outside_preds[0]
            # A true preheader has the header as its only successor.
            if candidate.successors() == [loop.header]:
                loop.preheader = candidate

    # -- queries --------------------------------------------------------------------------

    def all_loops(self) -> List[Loop]:
        out: List[Loop] = []

        def walk(loop: Loop) -> None:
            out.append(loop)
            for sub in loop.subloops:
                walk(sub)

        for loop in self.top_level_loops:
            walk(loop)
        return out

    def is_loop_header(self, block: BasicBlock) -> bool:
        loop = self._loop_of_block.get(block)
        return loop is not None and loop.header is block

    def __repr__(self) -> str:
        return (
            f"LoopInfo({self.function.name}, {len(self.top_level_loops)} top-level "
            f"loops, {len(self.all_loops())} total)"
        )
