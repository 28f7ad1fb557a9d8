"""Loop vectorisation (cost-model annotation form).

A full loop vectoriser rewrites the IR with vector types; for this
reproduction what matters is how vectorisation changes *performance
accounting* -- how many machine operations the backend issues per loop
iteration -- because that is what separates the X60's theoretical 25.6
GFLOP/s roof from what the kernel actually achieves.  The pass therefore
performs the legality analysis a vectoriser would (innermost loop, no calls,
no unanalysable loop-carried dependences except recognised reductions) and
annotates every instruction of a vectorisable loop body with the chosen
vector width.  The target lowering in :mod:`repro.compiler.targets` consumes
the annotation: an annotated ``fmul``/``fadd``/``load`` retires as one vector
machine op every *width* iterations instead of one scalar op per iteration.

Semantics are unchanged -- the execution engine still computes every element
-- which also means the Roofline instrumentation's IR-level operation counts
are identical whether or not the loop vectorises, exactly as in the paper
(operational intensity is a property of the program, not of the codegen).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.compiler.analysis.loops import Loop, LoopInfo
from repro.compiler.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Load,
    Store,
)
from repro.compiler.ir.module import Function
from repro.compiler.ir.values import Value
from repro.compiler.transforms.pass_manager import FunctionPass

#: Metadata key set on every instruction of a vectorised loop body.
VECTOR_WIDTH_KEY = "mperf.vector_width"
#: Metadata key recording vectorised loop headers on the function.
VECTOR_LOOPS_KEY = "mperf.vector_loops"


class LoopVectorizePass(FunctionPass):
    """Annotate vectorisable innermost loops with a vector width."""

    name = "loop-vectorize"

    def __init__(self, vector_width: int = 8):
        if vector_width < 1:
            raise ValueError("vector_width must be >= 1")
        self.vector_width = vector_width
        self._vectorized = 0
        self._rejected_calls = 0
        self._rejected_dependence = 0

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "vectorized": self._vectorized,
            "rejected_calls": self._rejected_calls,
            "rejected_dependence": self._rejected_dependence,
        }

    # -- legality ---------------------------------------------------------------------

    def _reduction_allocas(self, loop: Loop) -> Set[Value]:
        """Allocas used in a load -> arithmetic -> store reduction pattern.

        The canonical ``sum += a[i] * b[i]`` compiled through allocas becomes

            %v = load float, float* %sum.addr
            ...
            %acc = fadd float %v, %prod
            store float %acc, float* %sum.addr

        which a real vectoriser handles as a reduction.  We recognise the
        pattern structurally: an alloca that is both loaded and stored inside
        the loop, where every stored value is an arithmetic combination that
        (transitively) uses the loaded value.
        """
        loads_by_alloca: Dict[Value, List[Load]] = {}
        stores_by_alloca: Dict[Value, List[Store]] = {}
        for inst in loop.instructions():
            if isinstance(inst, Load) and isinstance(inst.pointer, Alloca):
                loads_by_alloca.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, Store) and isinstance(inst.pointer, Alloca):
                stores_by_alloca.setdefault(inst.pointer, []).append(inst)

        reductions: Set[Value] = set()
        for alloca, stores in stores_by_alloca.items():
            loads = loads_by_alloca.get(alloca, [])
            if not loads:
                continue
            if all(self._feeds(load, store.value) for store in stores for load in loads):
                reductions.add(alloca)
        return reductions

    @staticmethod
    def _feeds(source: Value, sink: Value, limit: int = 32) -> bool:
        """Does *source* reach *sink* through arithmetic instructions?"""
        seen: Set[int] = set()
        stack: List[Value] = [sink]
        while stack and len(seen) < limit:
            value = stack.pop()
            if value is source:
                return True
            if id(value) in seen:  # repro-lint: allow[no-id] -- cycle guard for one in-process walk; ids never order or escape
                continue
            seen.add(id(value))  # repro-lint: allow[no-id] -- cycle guard for one in-process walk; ids never order or escape
            if isinstance(value, (BinaryOp,)):
                stack.extend(value.operands)
        return False

    def _loop_is_vectorizable(self, loop: Loop) -> bool:
        if loop.subloops:
            return False  # only innermost loops
        reductions = self._reduction_allocas(loop)
        for inst in loop.instructions():
            if isinstance(inst, Call):
                self._rejected_calls += 1
                return False
            if isinstance(inst, Store) and isinstance(inst.pointer, Alloca):
                # Stores to scalars carried across iterations are loop-carried
                # dependences unless recognised as reductions (or the loop's
                # own induction-variable update).
                if inst.pointer not in reductions and not self._is_induction_update(inst, loop):
                    self._rejected_dependence += 1
                    return False
        return True

    @staticmethod
    def _is_induction_update(store: Store, loop: Loop) -> bool:
        """``i = i + step`` style updates of the loop's induction variable."""
        value = store.value
        if not isinstance(value, BinaryOp) or value.opcode not in ("add", "sub"):
            return False
        for operand in value.operands:
            if isinstance(operand, Load) and operand.pointer is store.pointer:
                return True
        return False

    # -- annotation --------------------------------------------------------------------------

    def run_on_function(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        loop_info = LoopInfo(function)
        changed = False
        vector_loops: Dict[str, int] = dict(
            function.metadata.get(VECTOR_LOOPS_KEY, {})
        )
        for loop in loop_info.all_loops():
            if loop.subloops or not self._loop_is_vectorizable(loop):
                continue
            width = self.vector_width
            for inst in loop.instructions():
                inst.metadata[VECTOR_WIDTH_KEY] = width
            vector_loops[loop.header.name] = width
            self._vectorized += 1
            changed = True
        if vector_loops:
            function.metadata[VECTOR_LOOPS_KEY] = vector_loops
        return changed
