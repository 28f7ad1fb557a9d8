"""CFG simplification.

Three cleanups that matter after other passes have run:

* turn conditional branches with a constant condition into unconditional
  jumps;
* remove blocks that have become unreachable from the entry;
* merge a block into its unique predecessor when that predecessor jumps
  unconditionally to it and it is the predecessor's only successor.
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.analysis.cfg import predecessors, reachable_blocks
from repro.compiler.ir.instructions import Branch, Jump
from repro.compiler.ir.module import Function
from repro.compiler.ir.values import Constant
from repro.compiler.transforms.pass_manager import FunctionPass


class SimplifyCfgPass(FunctionPass):
    """Basic CFG cleanups."""

    name = "simplify-cfg"

    def __init__(self) -> None:
        self._constant_branches = 0
        self._removed_blocks = 0
        self._merged_blocks = 0

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "constant_branches": self._constant_branches,
            "removed_blocks": self._removed_blocks,
            "merged_blocks": self._merged_blocks,
        }

    def run_on_function(self, function: Function) -> bool:
        changed = False
        changed |= self._fold_constant_branches(function)
        changed |= self._remove_unreachable(function)
        changed |= self._merge_straightline(function)
        return changed

    def _fold_constant_branches(self, function: Function) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, Branch) and isinstance(term.condition, Constant):
                target = term.then_block if term.condition.value else term.else_block
                block.remove(term)
                term.drop_operands()
                block.append(Jump(target))
                self._constant_branches += 1
                changed = True
        return changed

    def _remove_unreachable(self, function: Function) -> bool:
        reachable = reachable_blocks(function)
        removed = False
        for block in list(function.blocks):
            if block not in reachable:
                # Drop phi incomings that referenced the dead block.
                for other in function.blocks:
                    for phi in other.phis():
                        phi.incoming = [
                            (v, b) for v, b in phi.incoming if b is not block
                        ]
                function.remove_block(block)
                self._removed_blocks += 1
                removed = True
        return removed

    def _merge_straightline(self, function: Function) -> bool:
        changed = True
        any_change = False
        while changed:
            changed = False
            preds = predecessors(function)
            for block in list(function.blocks):
                if block is function.entry_block:
                    continue
                block_preds = preds.get(block, [])
                if len(block_preds) != 1:
                    continue
                pred = block_preds[0]
                term = pred.terminator
                if not isinstance(term, Jump) or term.target is not block:
                    continue
                if block.phis():
                    continue
                # Merge: remove pred's jump, move block's instructions up.
                pred.remove(term)
                term.drop_operands()
                for inst in list(block.instructions):
                    block.remove(inst)
                    pred.instructions.append(inst)
                    inst.parent = pred
                function.remove_block(block)
                # Phis in successors referring to `block` must now refer to `pred`.
                for successor in pred.successors():
                    for phi in successor.phis():
                        phi.incoming = [
                            (v, pred if b is block else b) for v, b in phi.incoming
                        ]
                self._merged_blocks += 1
                changed = True
                any_change = True
                break
        return any_change
