"""Dominator tree computation (Cooper-Harvey-Kennedy algorithm).

Natural-loop detection needs dominators to recognise back edges; the SESE
region check needs them to prove single entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler.analysis.cfg import predecessors, reverse_postorder
from repro.compiler.ir.module import BasicBlock, Function


class DominatorTree:
    """Immediate-dominator tree for one function."""

    def __init__(self, function: Function):
        self.function = function
        self._rpo = reverse_postorder(function)
        self._rpo_index: Dict[BasicBlock, int] = {
            block: i for i, block in enumerate(self._rpo)
        }
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._compute()

    # -- computation ----------------------------------------------------------------

    def _compute(self) -> None:
        if not self._rpo:
            return
        entry = self._rpo[0]
        preds = predecessors(self.function)
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        changed = True
        while changed:
            changed = False
            for block in self._rpo[1:]:
                candidates = [p for p in preds[block] if p in idom and p in self._rpo_index]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = self._intersect(new_idom, other, idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        idom[entry] = None
        self.idom = idom
        for block, parent in idom.items():
            if parent is not None:
                self._children.setdefault(parent, []).append(block)

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: Dict[BasicBlock, Optional[BasicBlock]]) -> BasicBlock:
        index = self._rpo_index
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    # -- queries -----------------------------------------------------------------------

    @property
    def root(self) -> BasicBlock:
        return self._rpo[0]

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children.get(block, []))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when *a* dominates *b* (reflexive)."""
        if a is b:
            return True
        current: Optional[BasicBlock] = self.idom.get(b)
        while current is not None:
            if current is a:
                return True
            if current is self.idom.get(current):
                break
            current = self.idom.get(current)
        return False

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Compute the dominance frontier of every block."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            block: set() for block in self._rpo
        }
        preds = predecessors(self.function)
        for block in self._rpo:
            if len(preds[block]) < 2:
                continue
            for pred in preds[block]:
                if pred not in self._rpo_index:
                    continue
                runner = pred
                while runner is not None and runner is not self.idom.get(block):
                    frontier[runner].add(block)
                    runner = self.idom.get(runner)
        return frontier
