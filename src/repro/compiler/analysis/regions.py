"""Single-entry/single-exit (SESE) region analysis.

The instrumentation pass only outlines loop nests that form a SESE region:
control enters only through the loop preheader/header and leaves only to a
single exit block.  That property is what makes the CodeExtractor's job clean
-- the outlined function has exactly one call site and one return path, so
wrapping it in ``notify_loop_begin`` / ``notify_loop_end`` calls is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.compiler.analysis.cfg import predecessors
from repro.compiler.analysis.dominators import DominatorTree
from repro.compiler.analysis.loops import Loop, LoopInfo
from repro.compiler.ir.module import BasicBlock, Function


@dataclass
class Region:
    """A single-entry/single-exit region of the CFG.

    ``entry`` is the unique block through which control enters the region
    (the loop header), ``exit`` is the unique block *outside* the region that
    every path leaving the region reaches first.
    """

    entry: BasicBlock
    exit: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)
    loop: Optional[Loop] = None

    @property
    def size(self) -> int:
        return len(self.blocks)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def __repr__(self) -> str:
        return (
            f"Region(entry={self.entry.name}, exit={self.exit.name}, "
            f"blocks={len(self.blocks)})"
        )


class RegionInfo:
    """Finds SESE regions corresponding to loops of a function."""

    def __init__(self, function: Function,
                 loop_info: Optional[LoopInfo] = None,
                 domtree: Optional[DominatorTree] = None):
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self.loop_info = loop_info or LoopInfo(function, self.domtree)
        self._preds = predecessors(function)

    def region_for_loop(self, loop: Loop) -> Optional[Region]:
        """Return the SESE region of *loop*, or None when it is not SESE.

        Requirements checked:

        * single entry: the only edges into the loop from outside target the
          header (no jumps into the middle of the loop);
        * single exit: every edge leaving the loop targets the same outside
          block;
        * no returns inside the loop (a return is an extra exit);
        * the header dominates every block of the loop (true for natural
          loops by construction, re-checked defensively).
        """
        # Single entry.
        for block in loop.blocks:
            if block is loop.header:
                continue
            for pred in self._preds.get(block, []):
                if pred not in loop.blocks:
                    return None

        # No returns inside.
        for block in loop.blocks:
            term = block.terminator
            if term is not None and term.opcode == "ret":
                return None

        # Single exit.
        exit_block = loop.single_exit_block
        if exit_block is None:
            return None

        # Header dominates all blocks.
        for block in loop.blocks:
            if not self.domtree.dominates(loop.header, block):
                return None

        return Region(entry=loop.header, exit=exit_block,
                      blocks=set(loop.blocks), loop=loop)

    def top_level_regions(self) -> List[Region]:
        """SESE regions of every top-level loop (the instrumentation targets)."""
        regions: List[Region] = []
        for loop in self.loop_info.top_level_loops:
            region = self.region_for_loop(loop)
            if region is not None:
                regions.append(region)
        return regions
