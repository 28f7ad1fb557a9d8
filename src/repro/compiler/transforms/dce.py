"""Dead-code elimination.

Removes instructions whose results are unused and that have no side effects.
Runs to a fixed point within each function (removing one instruction can make
its operands dead too).
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.ir.instructions import Alloca, Instruction, Phi
from repro.compiler.ir.module import Function
from repro.compiler.transforms.pass_manager import FunctionPass


class DeadCodeEliminationPass(FunctionPass):
    """Delete trivially dead instructions."""

    name = "dce"

    def __init__(self, remove_dead_allocas: bool = True):
        self.remove_dead_allocas = remove_dead_allocas
        self._removed = 0

    @property
    def statistics(self) -> Dict[str, int]:
        return {"removed": self._removed}

    def _is_dead(self, inst: Instruction, function: Function) -> bool:
        if inst.has_side_effects or inst.is_terminator:
            return False
        if inst.type.is_void:
            return False
        if isinstance(inst, Alloca) and not self.remove_dead_allocas:
            return False
        # An instruction is dead when no instruction in the function uses it.
        for block in function.blocks:
            for other in block.instructions:
                if inst in other.operands:
                    return False
                if isinstance(other, Phi) and any(v is inst for v, _ in other.incoming):
                    return False
        return True

    def run_on_function(self, function: Function) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for block in function.blocks:
                for inst in list(block.instructions):
                    if self._is_dead(inst, function):
                        block.remove(inst)
                        inst.drop_operands()
                        self._removed += 1
                        changed = True
                        progress = True
        return changed
