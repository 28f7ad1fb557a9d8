"""Address-range / alias analysis over the compiler IR.

An interval abstract interpretation built on the dataflow framework
(:mod:`repro.analysis.dataflow`): integer values are tracked as
``[lo, hi]`` intervals (``None`` = unbounded), pointer values as a *root*
allocation (a pointer :class:`~repro.compiler.ir.values.Argument` or an
``alloca``) plus a byte-offset interval.  Branch guards refine induction
variables per CFG edge (``i < n`` bounds ``i`` on the loop-body edge), so
the canonical KernelC loop shapes -- ``for (i = 0; i < n; i++)`` and the
tiled ``i += 32`` variants -- resolve to exact bounds once loop trip counts
are concrete.

The result bounds every (non register-promoted) load and store to a
``base + [lo, hi)`` byte region per root, with the access-granularity
stride.  When the caller supplies the concrete call arguments (as the
workload args builders produce them), pointer roots gain absolute base
addresses and the per-root regions become absolute address ranges -- which
is what the static race detector (:mod:`repro.analysis.races`) intersects
across threads.

Everything here is *semantic* (scalar) footprint: one access per executed
load/store, sized by the accessed type.  Vector retirement artifacts (a
grouped vector op retiring ``size * lanes`` bytes at the group-closing
address) are a property of the lowering, not of the program, and are
deliberately not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import DataflowAnalysis, pointer_root, solve
from repro.compiler.analysis import LoopInfo
from repro.compiler.analysis.cfg import reachable_blocks
from repro.compiler.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Cast,
    CompareOp,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from repro.compiler.ir.module import BasicBlock, Function
from repro.compiler.ir.types import IntType, PointerType
from repro.compiler.ir.values import Constant, Value

#: Lowering metadata key marking loads/stores elided by scalar promotion.
REG_PROMOTED_KEY = "mperf.reg_promoted"


# -- interval lattice ------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``None`` bounds are infinite."""

    lo: Optional[int]
    hi: Optional[int]

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, other: "Interval") -> bool:
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


def singleton(value: int) -> Interval:
    return Interval(value, value)


def _add_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(_add_bound(a.lo, b.lo), _add_bound(a.hi, b.hi))


def interval_neg(a: Interval) -> Interval:
    return Interval(None if a.hi is None else -a.hi,
                    None if a.lo is None else -a.lo)


def interval_sub(a: Interval, b: Interval) -> Interval:
    return interval_add(a, interval_neg(b))


def interval_mul(a: Interval, b: Interval) -> Interval:
    if a == singleton(0) or b == singleton(0):
        return singleton(0)
    if not a.is_bounded or not b.is_bounded:
        # A one-sided product needs sign reasoning to stay closed; the loop
        # shapes we care about have bounded operands by the time they multiply.
        return TOP
    corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(corners), max(corners))


def interval_shl(a: Interval, b: Interval) -> Interval:
    if not b.is_singleton or b.lo < 0 or b.lo > 62:
        return TOP
    return interval_mul(a, singleton(1 << b.lo))


def interval_join(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return Interval(lo, hi)


def interval_meet(a: Interval, b: Interval) -> Optional[Interval]:
    """Intersection; ``None`` when empty (the refining edge is dead)."""
    lo = a.lo if b.lo is None else (b.lo if a.lo is None else max(a.lo, b.lo))
    hi = a.hi if b.hi is None else (b.hi if a.hi is None else min(a.hi, b.hi))
    if lo is not None and hi is not None and lo > hi:
        return None
    return Interval(lo, hi)


def interval_widen(old: Interval, new: Interval) -> Interval:
    """Classic interval widening: unstable bounds jump to infinity."""
    lo = old.lo if (old.lo is not None and new.lo is not None
                    and new.lo >= old.lo) else None
    hi = old.hi if (old.hi is not None and new.hi is not None
                    and new.hi <= old.hi) else None
    return Interval(lo, hi)


@dataclass(frozen=True)
class PointerValue:
    """A pointer abstracted as *root* allocation + byte-offset interval."""

    root: Value
    offset: Interval

    def __str__(self) -> str:
        name = self.root.name or "<anon>"
        return f"&{name}{self.offset}"


@dataclass(frozen=True)
class _SlotContent:
    """State key for the *contents* of a non-escaping scalar stack slot.

    The KernelC frontend keeps every local (including the incoming copy of
    each parameter) in an ``alloca`` slot, reloading it at each use; without
    forwarding stored values through those slots nothing resolves.  The slot
    instruction itself keys its *address* in the analysis state, so contents
    get this wrapper as their own key.
    """

    slot: Value


def _loop_stored_slots(function: Function,
                       slots: frozenset) -> Dict[BasicBlock, frozenset]:
    """Per loop head, the scalar slots stored inside the natural loop it
    heads (:class:`~repro.compiler.analysis.LoopInfo`; *function* is
    pipeline output, so every block is reachable).

    This is the selective-widening map: at a loop head only the slots the
    loop itself modifies need widening -- loop-invariant contents (the outer
    induction variable seen from an inner loop) keep their joined value, so
    a transiently-growing outer bound is not smeared to infinity by an
    inner head it never changes in.
    """
    return {
        loop.header: frozenset(
            inst.pointer for block in loop.blocks
            for inst in block.instructions
            if isinstance(inst, Store) and inst.pointer in slots)
        for loop in LoopInfo(function).all_loops()
    }


def scalar_slots(function: Function) -> frozenset:
    """The allocas of *function* used only as direct load/store addresses.

    Such a slot behaves exactly like an SSA variable routed through memory:
    its address never escapes (never stored, never offset by a GEP, never
    passed to a call), so the value loaded from it is always the value most
    recently stored on the path -- which is what makes store-to-load
    forwarding through it sound.
    """
    allocas = [inst for block in function.blocks
               for inst in block.instructions if isinstance(inst, Alloca)]
    escaped = set()
    for block in function.blocks:
        for inst in block.instructions:
            for operand in inst.operands:
                if not isinstance(operand, Alloca):
                    continue
                if isinstance(inst, Load) and inst.pointer is operand:
                    continue
                if (isinstance(inst, Store) and inst.pointer is operand
                        and inst.value is not operand):
                    continue
                escaped.add(operand)
    return frozenset(a for a in allocas if a not in escaped)


# -- the analysis ----------------------------------------------------------------------


class AddressRangeAnalysis(DataflowAnalysis):
    """Forward interval analysis binding every SSA value to an abstract value.

    The state is a dict ``Value -> Interval | PointerValue``; a missing
    entry means *unknown* (top).  Pointer arguments are rooted at
    themselves, integer arguments take their concrete value when the caller
    provides bindings.
    """

    direction = "forward"

    def __init__(self, function: Function,
                 argument_values: Optional[Sequence[object]] = None):
        self.function = function
        self.slots = scalar_slots(function)
        self._loop_stores = _loop_stored_slots(function, self.slots)
        self._entry: Dict[Value, object] = {}
        values = list(argument_values) if argument_values is not None else None
        for index, arg in enumerate(function.args):
            if isinstance(arg.type, PointerType):
                self._entry[arg] = PointerValue(arg, singleton(0))
            elif isinstance(arg.type, IntType):
                if values is not None and index < len(values):
                    try:
                        self._entry[arg] = singleton(int(values[index]))
                    except (TypeError, ValueError):
                        pass
            # float args carry no address information

    def boundary(self, function: Function) -> Dict[Value, object]:
        return dict(self._entry)

    def join(self, states: List[Dict[Value, object]]) -> Dict[Value, object]:
        merged: Dict[Value, object] = {}
        first = states[0]
        for value, abstract in first.items():
            joined = abstract
            for other in states[1:]:
                other_abstract = other.get(value)
                joined = _join_abstract(joined, other_abstract)
                if joined is None:
                    break
            if joined is not None:
                merged[value] = joined
        return merged

    def transfer(self, block: BasicBlock,
                 in_state: Dict[Value, object]) -> Dict[Value, object]:
        state = dict(in_state)
        for inst in block.instructions:
            _transfer_instruction(inst, state, self.slots)
        return state

    def edge(self, block: BasicBlock, successor: BasicBlock,
             out_state: Dict[Value, object]):
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            return out_state
        condition = terminator.condition
        if not isinstance(condition, CompareOp) or condition.opcode != "icmp":
            return out_state
        taken = successor is terminator.then_block
        # A br with identical arms constrains nothing on either edge.
        if terminator.then_block is terminator.else_block:
            return out_state
        refined = _refine_on_compare(out_state, condition, taken)
        if refined is None or refined is out_state:
            return refined
        # A guard on a value freshly loaded from a scalar slot also bounds
        # the slot's *contents* on this edge (`i < n` on `%ld = load i.addr`
        # bounds i.addr itself), provided nothing stored to the slot between
        # the load and the branch -- that forwarding is what lets the next
        # reload of the induction variable see the loop bound.
        for operand in (condition.lhs, condition.rhs):
            if (isinstance(operand, Load) and operand.pointer in self.slots
                    and operand.parent is block
                    and not _stored_between(block, operand, operand.pointer)):
                new_abstract = refined.get(operand)
                if isinstance(new_abstract, Interval):
                    refined[_SlotContent(operand.pointer)] = new_abstract
        return refined

    def widen(self, old_state: Dict[Value, object],
              new_state: Dict[Value, object],
              block: Optional[BasicBlock] = None) -> Dict[Value, object]:
        if block is not None and block not in self._loop_stores:
            # Not a loop head: the block's input stabilizes once the heads
            # cutting its cycles do; widening here would only lose bounds.
            return new_state
        loop_slots = (None if block is None
                      else self._loop_stores.get(block, frozenset()))
        widened: Dict[Value, object] = {}
        for value, new_abstract in new_state.items():
            if (loop_slots is not None and isinstance(value, _SlotContent)
                    and value.slot not in loop_slots):
                # Loop-invariant slot: its joined value converges with the
                # region that actually stores it.
                widened[value] = new_abstract
                continue
            old_abstract = old_state.get(value)
            if old_abstract is None:
                widened[value] = new_abstract
            elif isinstance(old_abstract, Interval) and isinstance(new_abstract, Interval):
                widened[value] = interval_widen(old_abstract, new_abstract)
            elif (isinstance(old_abstract, PointerValue)
                  and isinstance(new_abstract, PointerValue)
                  and old_abstract.root is new_abstract.root):
                widened[value] = PointerValue(
                    new_abstract.root,
                    interval_widen(old_abstract.offset, new_abstract.offset))
            else:
                widened[value] = new_abstract
        return widened


def _join_abstract(a: object, b: object) -> Optional[object]:
    if a is None or b is None:
        return None
    if isinstance(a, Interval) and isinstance(b, Interval):
        return interval_join(a, b)
    if (isinstance(a, PointerValue) and isinstance(b, PointerValue)
            and a.root is b.root):
        return PointerValue(a.root, interval_join(a.offset, b.offset))
    return None


def _stored_between(block: BasicBlock, load: Load, slot: Value) -> bool:
    """Whether *slot* is stored to after *load* within *block*."""
    seen_load = False
    for inst in block.instructions:
        if inst is load:
            seen_load = True
        elif seen_load and isinstance(inst, Store) and inst.pointer is slot:
            return True
    return False


def _transfer_instruction(inst: Instruction, state: Dict[Value, object],
                          slots: frozenset) -> None:
    """Apply one instruction's effect to *state* in place."""
    if isinstance(inst, Store):
        if inst.pointer in slots:
            content = _lookup(inst.value, state)
            key = _SlotContent(inst.pointer)
            if content is None:
                state.pop(key, None)
            else:
                state[key] = content
        return
    abstract = _evaluate(inst, state, slots)
    if abstract is None:
        state.pop(inst, None)
    else:
        state[inst] = abstract


def _evaluate(inst: Instruction, state: Dict[Value, object],
              slots: frozenset = frozenset()) -> Optional[object]:
    if isinstance(inst, Alloca):
        return PointerValue(inst, singleton(0))
    if isinstance(inst, Load):
        if inst.pointer in slots:
            return state.get(_SlotContent(inst.pointer))
        return None
    if isinstance(inst, GetElementPtr):
        base = _lookup(inst.base, state)
        if not isinstance(base, PointerValue):
            return None
        index = _lookup_interval(inst.index, state)
        offset = interval_mul(index, singleton(inst.element_bytes))
        return PointerValue(base.root, interval_add(base.offset, offset))
    if isinstance(inst, BinaryOp) and isinstance(inst.type, IntType):
        lhs = _lookup_interval(inst.lhs, state)
        rhs = _lookup_interval(inst.rhs, state)
        if inst.opcode == "add":
            return interval_add(lhs, rhs)
        if inst.opcode == "sub":
            return interval_sub(lhs, rhs)
        if inst.opcode == "mul":
            return interval_mul(lhs, rhs)
        if inst.opcode == "shl":
            return interval_shl(lhs, rhs)
        return None
    if isinstance(inst, Cast):
        if inst.opcode in ("bitcast", "inttoptr", "ptrtoint"):
            inner = _lookup(inst.value, state)
            return inner if isinstance(inner, PointerValue) else None
        if inst.opcode in ("sext", "zext", "trunc"):
            inner = _lookup_interval(inst.value, state)
            if inner.is_top:
                return None
            if inst.opcode == "zext" and (inner.lo is None or inner.lo < 0):
                return None
            if isinstance(inst.type, IntType):
                if (inst.opcode == "trunc"
                        and not Interval(inst.type.min_value,
                                         inst.type.max_value).contains(inner)):
                    return None
            return inner
        return None
    if isinstance(inst, Phi):
        joined: Optional[object] = None
        first = True
        for value, _pred in inst.incoming:
            abstract = _lookup(value, state)
            if first:
                joined = abstract
                first = False
            else:
                joined = _join_abstract(joined, abstract)
            if joined is None:
                return None
        return joined
    if isinstance(inst, Select):
        true_abstract = _lookup(inst.true_value, state)
        false_abstract = _lookup(inst.false_value, state)
        return _join_abstract(true_abstract, false_abstract)
    # Loads (values through memory), calls, compares, float math: untracked.
    return None


def _lookup(value: Value, state: Dict[Value, object]) -> Optional[object]:
    if isinstance(value, Constant) and isinstance(value.type, IntType):
        return singleton(int(value.value))
    return state.get(value)


def _lookup_interval(value: Value, state: Dict[Value, object]) -> Interval:
    abstract = _lookup(value, state)
    return abstract if isinstance(abstract, Interval) else TOP


#: icmp predicate -> (bound on lhs implied when the predicate holds,
#: given the rhs interval).  Signed predicates only; unsigned variants
#: refine identically once both sides are known non-negative.
def _refine_on_compare(state: Dict[Value, object], condition: CompareOp,
                       taken: bool) -> Optional[Dict[Value, object]]:
    predicate = condition.predicate
    if not taken:
        predicate = _NEGATED[predicate]
    lhs, rhs = condition.lhs, condition.rhs
    lhs_interval = _lookup_interval(lhs, state)
    rhs_interval = _lookup_interval(rhs, state)
    if predicate in ("ult", "ule", "ugt", "uge"):
        nonneg = Interval(0, None)
        if not (nonneg.contains(lhs_interval) and nonneg.contains(rhs_interval)):
            return state
        predicate = "s" + predicate[1:]
    refined = dict(state)
    new_lhs = _apply_bound(lhs_interval, predicate, rhs_interval)
    if new_lhs is None:
        return None
    if new_lhs != lhs_interval and not isinstance(lhs, Constant):
        refined[lhs] = new_lhs
    new_rhs = _apply_bound(rhs_interval, _SWAPPED[predicate], lhs_interval)
    if new_rhs is None:
        return None
    if new_rhs != rhs_interval and not isinstance(rhs, Constant):
        refined[rhs] = new_rhs
    return refined


_NEGATED = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
    "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
}
_SWAPPED = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
}


def _apply_bound(value: Interval, predicate: str,
                 bound: Interval) -> Optional[Interval]:
    if predicate == "eq":
        return interval_meet(value, bound)
    if predicate == "ne":
        return value  # a hole in the middle is not representable
    if predicate == "slt":
        limit = None if bound.hi is None else bound.hi - 1
        return interval_meet(value, Interval(None, limit))
    if predicate == "sle":
        return interval_meet(value, Interval(None, bound.hi))
    if predicate == "sgt":
        limit = None if bound.lo is None else bound.lo + 1
        return interval_meet(value, Interval(limit, None))
    if predicate == "sge":
        return interval_meet(value, Interval(bound.lo, None))
    return value


# -- access collection -----------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One static load/store site with its resolved byte-offset region."""

    instruction: Instruction
    root: Optional[Value]
    offset: Interval
    size_bytes: int
    is_store: bool

    @property
    def bounded(self) -> bool:
        return self.root is not None and self.offset.is_bounded


@dataclass
class Region:
    """The aggregate byte region a function touches under one root."""

    name: str
    root: Value
    lo: Optional[int] = None          # smallest byte offset touched
    hi: Optional[int] = None          # one past the largest byte touched
    stride: int = 0                   # gcd of access sizes (granularity)
    reads: int = 0                    # load sites
    writes: int = 0                   # store sites
    bounded: bool = True
    base: Optional[int] = None        # absolute base address when known

    @property
    def is_private(self) -> bool:
        """Alloca-rooted regions live on the per-thread stack."""
        return isinstance(self.root, Alloca)

    def absolute(self) -> Optional[Tuple[int, int]]:
        """The absolute half-open address range, when fully resolved."""
        if self.base is None or not self.bounded or self.lo is None:
            return None
        return (self.base + self.lo, self.base + self.hi)


@dataclass
class RangeResult:
    """Output of :func:`analyze_address_ranges` for one function."""

    function: Function
    accesses: List[Access] = field(default_factory=list)
    regions: Dict[Value, Region] = field(default_factory=dict)
    unresolved: List[Access] = field(default_factory=list)

    @property
    def fully_bounded(self) -> bool:
        return not self.unresolved and all(r.bounded for r in self.regions.values())

    def sorted_regions(self) -> List[Region]:
        # Argument index breaks ties between identically named roots; allocas
        # sort after arguments (index -1 would sort first, hence the guard).
        return sorted(self.regions.values(),
                      key=lambda r: (r.name, getattr(r.root, "index", 1 << 30)))


def analyze_address_ranges(function: Function,
                           argument_values: Optional[Sequence[object]] = None,
                           ) -> RangeResult:
    """Bound every load/store of *function* to a base+offset byte region.

    *argument_values* are the concrete call arguments (addresses for pointer
    parameters, trip counts for integers) as the workload args builders
    produce them; when given, pointer regions carry absolute base addresses.
    """
    result = RangeResult(function)
    if function.is_declaration:
        return result
    analysis = AddressRangeAnalysis(function, argument_values)
    slots = analysis.slots
    fixpoint = solve(function, analysis)
    bases: Dict[Value, int] = {}
    if argument_values is not None:
        for index, arg in enumerate(function.args):
            if isinstance(arg.type, PointerType) and index < len(argument_values):
                try:
                    bases[arg] = int(argument_values[index])
                except (TypeError, ValueError):
                    pass
    for block in function.blocks:
        if block not in fixpoint.in_states:
            if block in reachable_blocks(function):
                # Reachable but never solved (shouldn't happen); stay sound.
                state: Dict[Value, object] = {}
            else:
                continue
        else:
            state = dict(fixpoint.in_states[block])
        for inst in block.instructions:
            if isinstance(inst, (Load, Store)) and not inst.metadata.get(REG_PROMOTED_KEY):
                pointer = inst.pointer
                abstract = _lookup(pointer, state)
                size = inst.stored_bytes if isinstance(inst, Store) else inst.loaded_bytes
                if isinstance(abstract, PointerValue):
                    access = Access(inst, abstract.root, abstract.offset, size,
                                    isinstance(inst, Store))
                else:
                    root = pointer_root(pointer)
                    access = Access(inst, root, TOP, size, isinstance(inst, Store))
                result.accesses.append(access)
            _transfer_instruction(inst, state, slots)
    for access in result.accesses:
        if access.root is None:
            result.unresolved.append(access)
            continue
        region = result.regions.get(access.root)
        if region is None:
            name = access.root.name or access.root.__class__.__name__.lower()
            region = Region(name=name, root=access.root,
                            base=bases.get(access.root))
            result.regions[access.root] = region
        if access.is_store:
            region.writes += 1
        else:
            region.reads += 1
        region.stride = math.gcd(region.stride, access.size_bytes)
        if not access.offset.is_bounded:
            region.bounded = False
            result.unresolved.append(access)
            continue
        end = access.offset.hi + access.size_bytes
        region.lo = access.offset.lo if region.lo is None else min(region.lo,
                                                                   access.offset.lo)
        region.hi = end if region.hi is None else max(region.hi, end)
    return result
