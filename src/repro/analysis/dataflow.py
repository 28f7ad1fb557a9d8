"""A worklist dataflow framework over the compiler IR's CFG.

The framework is deliberately small: an analysis declares a *direction*
(forward or backward), a *boundary* state, a *join* and a per-block
*transfer* function, and :func:`solve` iterates a worklist (seeded in
reverse postorder) to the least fixed point.  Forward analyses may also
refine the state per outgoing CFG edge (:meth:`DataflowAnalysis.edge`) --
which is how the interval analysis in :mod:`repro.analysis.ranges` narrows
loop induction variables with branch guards -- and provide a *widening*
operator so lattices with infinite ascending chains still terminate.

Two classic analyses ship with the framework as both clients and executable
documentation: :class:`LivenessAnalysis` (backward, live SSA values) and
:class:`ReachingDefinitionsAnalysis` (forward, reaching stores per memory
root).  The address-range analysis (:mod:`repro.analysis.ranges`) and the
race certifier built on it (:mod:`repro.analysis.races`) are the
load-bearing clients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.compiler.analysis.cfg import predecessors, reverse_postorder
from repro.compiler.ir.instructions import (
    Alloca,
    Cast,
    GetElementPtr,
    Instruction,
    Store,
)
from repro.compiler.ir.module import BasicBlock, Function
from repro.compiler.ir.values import Argument, Value


class DataflowAnalysis:
    """One dataflow problem: direction, boundary, join, transfer.

    States must be immutable values with a meaningful ``==`` (frozensets,
    tuples, dicts compared by value) -- the solver detects convergence by
    comparing successive states.  ``None`` is reserved by the solver to mean
    *unreachable / no information* and is skipped by joins.
    """

    #: ``"forward"`` (states flow entry -> exit) or ``"backward"``.
    direction = "forward"

    def boundary(self, function: Function):
        """The state at the function entry (forward) or at exits (backward)."""
        raise NotImplementedError

    def join(self, states: List[object]):
        """Combine the (non-None) states flowing into a block."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state):
        """The state after (forward) / before (backward) executing *block*."""
        raise NotImplementedError

    def edge(self, block: BasicBlock, successor: BasicBlock, out_state):
        """Refine *out_state* on the edge ``block -> successor``.

        Forward analyses only.  Return ``None`` to mark the edge as
        statically unreachable (e.g. a branch guard with an empty meet).
        """
        return out_state

    def widen(self, old_state, new_state, block: Optional[BasicBlock] = None):
        """Accelerate convergence once a block has been revisited often.

        *block* is the block whose input is being widened, letting an
        analysis widen selectively (e.g. only loop-carried state at loop
        heads); ``block=None`` is the solver's last-resort signal after
        :data:`HARD_WIDEN_AFTER` revisits and must widen unconditionally.
        The default is to accept the new state (no widening); analyses over
        infinite-height lattices (intervals) must override this.
        """
        return new_state


@dataclass
class DataflowResult:
    """Per-block fixpoint states.

    For a forward analysis ``in_states[b]`` is the state at block entry and
    ``out_states[b]`` the state after the block; for a backward analysis the
    roles are mirrored (``in_states`` holds the state at block *entry*
    computed from below, ``out_states`` the state at block exit).
    """

    in_states: Dict[BasicBlock, object] = field(default_factory=dict)
    out_states: Dict[BasicBlock, object] = field(default_factory=dict)
    iterations: int = 0


#: Revisit count after which the solver starts widening a block's input.
WIDEN_AFTER = 16

#: Revisit count after which the solver demands *unconditional* widening
#: (``widen(..., block=None)``) -- the termination backstop for analyses
#: whose selective widening policy misjudges a cycle.
HARD_WIDEN_AFTER = 1024


def solve(function: Function, analysis: DataflowAnalysis) -> DataflowResult:
    """Run *analysis* over *function* to a fixed point."""
    result = DataflowResult()
    if function.is_declaration:
        return result
    order = reverse_postorder(function)
    if analysis.direction == "forward":
        _solve_forward(function, analysis, order, result)
    elif analysis.direction == "backward":
        _solve_backward(function, analysis, order, result)
    else:
        raise ValueError(
            f"unknown dataflow direction {analysis.direction!r} "
            "(expected 'forward' or 'backward')"
        )
    return result


def _solve_forward(function: Function, analysis: DataflowAnalysis,
                   order: List[BasicBlock], result: DataflowResult) -> None:
    preds = predecessors(function)
    entry = function.entry_block
    position = {block: index for index, block in enumerate(order)}
    worklist = deque(order)
    queued = set(order)
    visits: Dict[BasicBlock, int] = {}
    while worklist:
        block = worklist.popleft()
        queued.discard(block)
        result.iterations += 1
        incoming = []
        for pred in preds.get(block, []):
            out = result.out_states.get(pred)
            if out is None:
                continue
            refined = analysis.edge(pred, block, out)
            if refined is not None:
                incoming.append(refined)
        if block is entry:
            incoming.append(analysis.boundary(function))
        if not incoming:
            continue  # statically unreachable
        in_state = incoming[0] if len(incoming) == 1 else analysis.join(incoming)
        count = visits.get(block, 0) + 1
        visits[block] = count
        old_in = result.in_states.get(block)
        if old_in is not None and count > HARD_WIDEN_AFTER:
            in_state = analysis.widen(old_in, in_state, None)
        elif old_in is not None and count > WIDEN_AFTER:
            in_state = analysis.widen(old_in, in_state, block)
        if old_in is not None and in_state == old_in:
            continue
        result.in_states[block] = in_state
        out_state = analysis.transfer(block, in_state)
        if out_state == result.out_states.get(block):
            continue
        result.out_states[block] = out_state
        for succ in block.successors():
            if succ in position and succ not in queued:
                worklist.append(succ)
                queued.add(succ)


def _solve_backward(function: Function, analysis: DataflowAnalysis,
                    order: List[BasicBlock], result: DataflowResult) -> None:
    preds = predecessors(function)
    worklist = deque(reversed(order))
    queued = set(order)
    visits: Dict[BasicBlock, int] = {}
    while worklist:
        block = worklist.popleft()
        queued.discard(block)
        result.iterations += 1
        incoming = [result.in_states[succ] for succ in block.successors()
                    if succ in result.in_states]
        if not block.successors():
            incoming.append(analysis.boundary(function))
        if not incoming:
            out_state = analysis.boundary(function)
        else:
            out_state = (incoming[0] if len(incoming) == 1
                         else analysis.join(incoming))
        count = visits.get(block, 0) + 1
        visits[block] = count
        old_out = result.out_states.get(block)
        if old_out is not None and count > HARD_WIDEN_AFTER:
            out_state = analysis.widen(old_out, out_state, None)
        elif old_out is not None and count > WIDEN_AFTER:
            out_state = analysis.widen(old_out, out_state, block)
        if old_out is not None and out_state == old_out:
            continue
        result.out_states[block] = out_state
        in_state = analysis.transfer(block, out_state)
        if in_state == result.in_states.get(block):
            continue
        result.in_states[block] = in_state
        for pred in preds.get(block, []):
            if pred not in queued:
                worklist.append(pred)
                queued.add(pred)


# -- memory roots ---------------------------------------------------------------------


def pointer_root(value: Value) -> Optional[Value]:
    """The allocation a pointer value is derived from, or ``None``.

    Walks ``getelementptr`` chains and pointer-preserving casts back to an
    :class:`~repro.compiler.ir.instructions.Alloca` or a pointer-typed
    :class:`~repro.compiler.ir.values.Argument`.  Pointers loaded from
    memory (or otherwise synthesised) have no statically known root.
    """
    seen = 0
    while seen < 1024:
        seen += 1
        if isinstance(value, (Alloca, Argument)):
            return value
        if isinstance(value, GetElementPtr):
            value = value.base
            continue
        if isinstance(value, Cast) and value.opcode in ("bitcast", "inttoptr",
                                                        "ptrtoint"):
            value = value.value
            continue
        return None
    return None


# -- liveness --------------------------------------------------------------------------


class LivenessAnalysis(DataflowAnalysis):
    """Backward live-value analysis over SSA values.

    A value is live at a point when some path from that point uses it.  Phi
    uses are attributed to the phi's own block rather than to the incoming
    edges, which over-approximates liveness slightly but keeps the transfer
    function a plain block walk -- precise enough for the register-pressure
    style queries ``repro analyze`` reports.
    """

    direction = "backward"

    def boundary(self, function: Function) -> FrozenSet[Value]:
        return frozenset()

    def join(self, states: List[FrozenSet[Value]]) -> FrozenSet[Value]:
        return frozenset().union(*states)

    def transfer(self, block: BasicBlock,
                 out_state: FrozenSet[Value]) -> FrozenSet[Value]:
        live = set(out_state)
        for inst in reversed(block.instructions):
            live.discard(inst)
            for operand in inst.operands:
                if isinstance(operand, (Instruction, Argument)):
                    live.add(operand)
        return frozenset(live)


def live_in(function: Function) -> Dict[BasicBlock, FrozenSet[Value]]:
    """Live values at every block entry of *function*."""
    result = solve(function, LivenessAnalysis())
    return {block: result.in_states.get(block, frozenset())
            for block in function.blocks}


def max_live_values(function: Function) -> int:
    """The largest live-in set across the function's blocks.

    A block-granular register-pressure proxy (per-instruction pressure would
    need a walk inside blocks; block granularity is what the analyze report
    needs to compare kernels).
    """
    if function.is_declaration:
        return 0
    sets = live_in(function)
    return max((len(values) for values in sets.values()), default=0)


# -- reaching definitions --------------------------------------------------------------


class ReachingDefinitionsAnalysis(DataflowAnalysis):
    """Forward reaching-stores analysis, keyed by memory root.

    A *definition* is a :class:`~repro.compiler.ir.instructions.Store`; it
    reaches a point when some path from the store to the point contains no
    intervening store that certainly overwrites it.  A store kills previous
    definitions of the same root only when it writes *directly* through the
    root (a whole-slot strong update); stores through derived pointers
    (``getelementptr`` results) update weakly, because the static offset may
    differ per execution.
    """

    direction = "forward"

    def boundary(self, function: Function) -> FrozenSet[Store]:
        return frozenset()

    def join(self, states: List[FrozenSet[Store]]) -> FrozenSet[Store]:
        return frozenset().union(*states)

    def transfer(self, block: BasicBlock,
                 in_state: FrozenSet[Store]) -> FrozenSet[Store]:
        defs = set(in_state)
        for inst in block.instructions:
            if not isinstance(inst, Store):
                continue
            root = pointer_root(inst.pointer)
            strong = inst.pointer is root and root is not None
            if strong:
                defs = {d for d in defs if pointer_root(d.pointer) is not root}
            defs.add(inst)
        return frozenset(defs)


def reaching_definitions(function: Function) -> Dict[BasicBlock, FrozenSet[Store]]:
    """Stores reaching every block entry of *function*."""
    result = solve(function, ReachingDefinitionsAnalysis())
    return {block: result.in_states.get(block, frozenset())
            for block in function.blocks}
