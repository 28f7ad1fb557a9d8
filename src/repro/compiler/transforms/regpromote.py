"""Scalar register promotion (cost-model form).

The KernelC frontend keeps every local variable in a stack slot (an alloca),
like Clang at -O0.  The paper's measurements are of -O3 binaries, where the
register allocator keeps induction variables and scalar accumulators in
registers: their loads and stores do not exist in the generated code, do not
touch the cache, and do not contribute to the memory traffic that determines
arithmetic intensity.

Rather than rewriting the IR into SSA (a full mem2reg), this pass performs
the *escape analysis* mem2reg would and marks the loads and stores of
non-escaping scalar slots with ``mperf.reg_promoted`` metadata.  Consumers:

* the Roofline instrumentation's per-block byte counts skip marked accesses,
  so arithmetic intensity reflects real array traffic only;
* the target lowering retires marked accesses as zero machine operations
  (they are register reads/writes in the modelled -O3 build), so the timing
  model and the PMU agree with the counts.

Program semantics are untouched -- the reference interpreter still goes
through memory, and the engine's generated code keeps these slots in
Python locals written back to the same stack bytes -- which keeps results
bit-identical while the accounting matches an optimised build.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.ir.instructions import Alloca, Call, GetElementPtr, Instruction, Load, Store
from repro.compiler.ir.module import Function
from repro.compiler.transforms.pass_manager import FunctionPass

#: Metadata key set on loads/stores of promoted scalar slots.
REG_PROMOTED_KEY = "mperf.reg_promoted"


class PromoteScalarsPass(FunctionPass):
    """Mark accesses to non-escaping scalar allocas as register traffic."""

    name = "promote-scalars"

    def __init__(self) -> None:
        self._promoted_slots = 0
        self._marked_accesses = 0

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "promoted_slots": self._promoted_slots,
            "marked_accesses": self._marked_accesses,
        }

    @staticmethod
    def _is_promotable(alloca: Alloca, function: Function) -> bool:
        """A slot is promotable when it is scalar and its address never escapes."""
        if alloca.count != 1:
            return False
        if alloca.allocated_type.is_vector:
            return False
        for block in function.blocks:
            for inst in block.instructions:
                if alloca not in inst.operands:
                    continue
                if isinstance(inst, Load) and inst.pointer is alloca:
                    continue
                if isinstance(inst, Store) and inst.pointer is alloca and inst.value is not alloca:
                    continue
                # Any other use -- call argument, GEP base, stored as a value,
                # compared, ... -- means the address escapes.
                return False
        return True

    def run_on_function(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        promotable: List[Alloca] = []
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Alloca) and self._is_promotable(inst, function):
                    promotable.append(inst)
        if not promotable:
            return False
        slots = set(promotable)
        changed = False
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.pointer in slots:
                    if not inst.metadata.get(REG_PROMOTED_KEY):
                        inst.metadata[REG_PROMOTED_KEY] = True
                        self._marked_accesses += 1
                        changed = True
                elif isinstance(inst, Store) and inst.pointer in slots:
                    if not inst.metadata.get(REG_PROMOTED_KEY):
                        inst.metadata[REG_PROMOTED_KEY] = True
                        self._marked_accesses += 1
                        changed = True
        self._promoted_slots += len(promotable)
        return changed
