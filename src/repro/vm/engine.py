"""The IR execution engine.

Semantics and timing are computed together, instruction by instruction:

* the *interpreter* part computes real values (loads/stores go through the
  :class:`~repro.vm.memory.Memory`), so workload results can be checked
  against numpy references in tests;
* the *accounting* part lowers each executed instruction through the target
  lowering into machine ops and retires them on the platform's core timing
  model, which updates caches, the branch predictor and every PMU counter --
  and therefore can raise sampling interrupts mid-run.

External calls (the ``mperf_roofline_internal_*`` runtime and a small libm
subset) go to registered Python handlers: a handler's ``entry(name)``
returns the callable implementing *name*, called with the IR arguments.

Dispatch architecture
---------------------

The engine has two dispatch strategies over the same semantics:

* **Fast dispatch** (the default): each function is *predecoded* once, on
  first entry, into one generated Python generator (see :class:`_Codegen`):
  an int block id selects each block through a balanced ``if`` tree, and
  arguments, SSA values, phis and the scalar slots ``PromoteScalarsPass``
  finds non-escaping are locals of its one frame.  What the
  reference interpreter decides per dynamic instruction (instruction class,
  operand kind, opcode, integer wrap, ``struct`` format, vector gate, the
  target lowering memoized by ``TargetLowering.lower_cached``) is decided
  once and written into the source.

  Each external callee is resolved once, at predecode, to the callable
  the call site invokes directly.  The executed IR instructions, machine
  ops and external calls are counted in locals of the frame and added to
  :attr:`ExecutionEngine.stats` only at three sync points: before a
  quantum ``yield``, before an internal call and when the frame exits.

  Retired machine ops accumulate in a pending buffer that is flushed in
  chunks through :meth:`~repro.platforms.machine.Machine.execute_batch` --
  before internal calls and before external calls that observe the
  machine (a handler may declare ``observes_machine(name) -> bool``;
  builtin math does not observe), at function return (before the task's
  stack frame pops, so samples attribute correctly) and at a size
  threshold.  ``execute_batch`` keeps counters, bus totals and samples
  bit-identical to the per-op path, and resolves a flush's addressed
  accesses in one batched ``hierarchy.access_lines`` call.

* **Slow dispatch** (``fast_dispatch=False``): the original instruction-at-
  a-time interpreter, kept as the reference implementation.  Equivalence
  tests run both engines on the same workload and assert identical results,
  PMU counter values and sample streams.

Preemptible execution
---------------------

Each activation is a *generator*: the generated function on the fast path,
the reference path's block loop on the slow one; internal calls delegate
with ``yield from``.  :meth:`ExecutionEngine.run_yielding` yields control
after every *quantum* of executed IR instructions -- the SMP scheduler's
time slice.  :meth:`ExecutionEngine.run` drains the same generator with the
fuel cell parked out of reach, so it never suspends.  Both paths decrement
one shared fuel cell by each completed block's instruction count, so they
are preempted after exactly the same dynamic instruction, and a multi-hart
schedule (and every per-hart sample stream) is bit-identical across the
two.  Pending batched machine ops are flushed, and the frame's counts
added to ``stats``, *before* yielding: once another hart runs, the shared
LLC and the contended memory controller must have observed every access
this hart already executed, in program order.
The locals of every frame on the call stack survive the yield, so a thread
resumes mid-function exactly where it was preempted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence

from repro.compiler.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CompareOp,
    GetElementPtr,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import FloatType, IntType, PointerType, Type
from repro.compiler.ir.values import Constant, UndefValue, Value
from repro.compiler.targets.base import TargetLowering
from repro.compiler.transforms.regpromote import PromoteScalarsPass
from repro.compiler.transforms.vectorize import VECTOR_WIDTH_KEY
from repro.isa.machine_ops import MachineOp
from repro.kernel.task import Task
from repro.platforms.machine import Machine
from repro.telemetry import span as _span
from repro.vm.memory import Memory


class ExternalCallError(Exception):
    """Raised when a call to an undefined external function cannot be dispatched."""


@dataclass
class ExecutionStats:
    """What one engine has executed so far."""

    ir_instructions: int = 0
    machine_ops: int = 0
    calls: int = 0
    external_calls: int = 0
    per_function_instructions: Dict[str, int] = field(default_factory=dict)


def _libm(pick: Callable[[float, float], float]) -> Callable[[float, float], float]:
    """``fminf``/``fmaxf`` with libm NaN semantics: a NaN operand loses."""
    return lambda a, b: b if math.isnan(a) else a if math.isnan(b) else pick(a, b)


#: Builtin math externals (a tiny libm) available to KernelC programs.
_BUILTIN_MATH: Dict[str, Callable] = {
    "sqrtf": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "fabsf": abs,
    "expf": math.exp,
    "logf": lambda x: math.log(x) if x > 0 else float("-inf"),
    "fminf": _libm(min),
    "fmaxf": _libm(max),
}

def _fdiv(a: float, b: float) -> float:
    """IEEE-754 division: x/0 is signed infinity, but 0/0 and NaN/0 are NaN."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return float("nan")
    return math.copysign(float("inf"), a)


#: Float binary opcodes -> semantics (both dispatch paths share these).
_FLOAT_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _fdiv,
    "frem": lambda a, b: math.fmod(a, b) if b != 0.0 else float("nan"),
}

#: fcmp ordered predicates -> semantics: ordered comparisons are false
#: whenever an operand is NaN, which Python's operators already give us for
#: every predicate except inequality ("one" is ordered-AND-unequal, so the
#: naive `a != b` would wrongly return true on NaN).
_FCMP_PREDICATES: Dict[str, Callable[[float, float], bool]] = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a < b or a > b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}

_F32_STRUCT = struct.Struct("<f")


class _Frame:
    """One activation record of the reference interpreter."""

    __slots__ = ("function", "values")

    def __init__(self, function: Function):
        self.function = function
        self.values: Dict[Value, object] = {}


def _int_divide(opcode: str, a: int, b: int, half: int, mask: int) -> int:
    """``sdiv``/``srem``/``udiv``/``urem``, wrapped; a zero divisor gives 0."""
    if opcode[0] == "u":
        a, b = a & mask, b & mask
    if b == 0:
        return 0
    if opcode == "udiv":
        result = a // b
    elif opcode == "urem":
        result = a % b
    else:
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        result = quotient if opcode == "sdiv" else a - b * quotient
    return (result + half & mask) - half


_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
            "shl": "<<", "ashr": ">>", "fadd": "+", "fsub": "-", "fmul": "*",
            "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
            "sge": ">=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
            "oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

#: The engine objects every generated factory binds first, in this order.
_FIXED_PARAMS = ("pending_append, pending_extend, pending_mem_append, pending, "
                 "stats, per_fn, fuel, MachineOp, flush, dispatch, call, "
                 "stack_alloc, general")


class _Codegen:
    """Python source for one function: one generator, ``run(*args)``.

    An int ``b`` selects the next block through a balanced ``if b < k``
    tree inside one loop, whose tail adds the block's instruction count to
    the frame's ``ni`` and spends the shared fuel.  ``ni``, ``nm`` (machine
    ops) and ``ne`` (external calls) reach ``stats`` only before a quantum
    ``yield``, before an internal call and in the frame's ``finally``.
    Arguments, SSA values and phis are locals of the one frame; phis are
    assigned in parallel on each edge.  So is the content of every
    *localized* slot: an ``alloca`` whose address never escapes
    (``PromoteScalarsPass._is_promotable``), accessed with one scalar type
    that has a stack codec.  Its local starts as the bytes at
    its address and is written back when the ``alloca`` runs again and when
    the frame exits, so the stack ends up as the reference path leaves it.
    The source is a factory whose parameters bind the objects it refers to.
    """

    def __init__(self, engine: "ExecutionEngine", function: Function):
        self.engine = engine
        self.function = function
        self.accounted = engine.machine is not None
        self.objects: List[object] = []
        self.shared: Dict[object, str] = {}
        self.names: Dict[Value, str] = {}
        self.kinds: Dict[Value, Optional[str]] = {}
        self.codecs: Dict[Type, Optional[List[str]]] = {}
        self.lines: List[str] = []
        self.temps = 0
        self.ids = {block: index for index, block in enumerate(function.blocks)}
        # The frame's count locals, and the statement adding them to stats.
        counted = [("ni", "stats.ir_instructions"),
                   ("ni", f"per_fn[{function.name!r}]")]
        if self.accounted:
            counted.append(("nm", "stats.machine_ops"))
        if any(isinstance(inst, Call) and self.internal(inst) is None
               for block in function.blocks for inst in block.instructions):
            counted.append(("ne", "stats.external_calls"))
        self.counters = " = ".join(dict.fromkeys(name for name, _ in counted)) + " = 0"
        self.sync = "; ".join(f"{stat} += {name}" for name, stat in counted)
        # Each block's non-phi instructions up to its first terminator.
        self.bodies: Dict[BasicBlock, tuple] = {}
        home: Dict[Alloca, BasicBlock] = {}
        types: Dict[Alloca, set] = {}
        for block in function.blocks:
            body = [inst for inst in block.instructions if not isinstance(inst, Phi)]
            ends = [i for i, inst in enumerate(body) if isinstance(inst, (Branch, Jump, Ret))]
            self.bodies[block] = (body[:ends[0]], body[ends[0]]) if ends else (body, None)
            for inst in self.bodies[block][0]:
                if isinstance(inst, Alloca):
                    home[inst] = block
                elif isinstance(inst, (Load, Store)) and isinstance(inst.pointer, Alloca):
                    types.setdefault(inst.pointer, set()).add(
                        inst.type if isinstance(inst, Load) else inst.value.type)
        self.slots: Dict[Alloca, tuple] = {}
        for alloca, used in types.items():
            type_ = used.pop()
            if (alloca in home and not used and self.codec(type_)
                    and type_.size_bytes() <= max(1, alloca.allocated_bytes)
                    and PromoteScalarsPass._is_promotable(alloca, function)):
                self.slots[alloca] = (type_, f"s{len(self.slots)}", home[alloca])
        # Localized slots whose alloca can run twice in one activation.
        self.reentered = {alloca for alloca, (_, _, block) in self.slots.items()
                          if self.cyclic(block)}

    def internal(self, inst: Call) -> Optional[Function]:
        """The defined function *inst* calls; None for an external call."""
        callee = inst.callee
        if isinstance(callee, str) and self.engine.module.has_function(callee):
            callee = self.engine.module.get_function(callee)
        if isinstance(callee, Function) and not callee.is_declaration:
            return callee
        return None

    def cyclic(self, start: BasicBlock) -> bool:
        """Whether *start* can run again after it runs."""
        seen, todo = set(), [start]
        while todo:
            terminator = self.bodies[todo.pop()][1]
            for succ in terminator.successors() if terminator is not None else ():
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        return start in seen

    # .. names .................................................................................

    def bind(self, obj: object, shared: bool = False) -> str:
        """A factory parameter bound to *obj* (one per object when *shared*)."""
        if shared and obj in self.shared:
            return self.shared[obj]
        name = f"k{len(self.objects)}"
        self.objects.append(obj)
        if shared:
            self.shared[obj] = name
        return name

    def codec(self, type_: Type) -> Optional[List[str]]:
        """Names bound to *type_*'s ``(unpack_from, pack_into, stack)``."""
        if type_ not in self.codecs:
            codec = self.engine.memory.stack_slot(type_)
            self.codecs[type_] = codec and [self.bind(obj) for obj in codec]
        return self.codecs[type_]

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def assign(self, expr: str, name: Optional[str] = None) -> str:
        """Emit ``name = expr`` (a fresh temporary by default); the name."""
        if name is None:
            self.temps += 1
            name = f"t{self.temps}"
        self.emit(f"{name} = {expr}")
        return name

    def literal(self, obj: object) -> str:
        if obj is None or obj.__class__ in (bool, int) or (
                obj.__class__ is float and math.isfinite(obj)):
            return f"({obj!r})" if repr(obj).startswith("-") else repr(obj)
        return self.bind(obj)

    # .. operands ..............................................................................

    def kind(self, value: Value) -> Optional[str]:
        """``"i"``/``"f"`` when *value*'s definition always gives a Python
        int/float, else None."""
        if value not in self.kinds:
            self.kinds[value] = None
            kind = None
            if isinstance(value, Constant):
                kind = {int: "i", float: "f"}.get(value.value.__class__)
            elif isinstance(value, (UndefValue, CompareOp, GetElementPtr, Alloca)):
                kind = "i"
            elif isinstance(value, BinaryOp):
                kind = "f" if value.is_float_op else "i"
            elif isinstance(value, Load):
                kind = ("f" if isinstance(value.type, FloatType) else "i"
                        if isinstance(value.type, (IntType, PointerType)) else None)
            elif isinstance(value, Cast):
                kind = ("i" if value.opcode in ("sext", "zext", "trunc", "fptosi")
                        else "f" if value.opcode in ("fpext", "fptrunc", "sitofp")
                        else self.kind(value.value))
            elif isinstance(value, Select):
                kind = self.kind(value.true_value)
                if kind != self.kind(value.false_value):
                    kind = None
            self.kinds[value] = kind
        return self.kinds[value]

    def operand(self, value: Optional[Value], want: Optional[str] = None) -> str:
        """*value* as a name or literal, coerced to int (*want* ``"i"``) or
        float (``"f"``) once per block."""
        coerce = {"i": "int", "f": "float"}.get(want)
        if value is None:
            return "None"
        if isinstance(value, (Constant, UndefValue)):
            const = value.value if isinstance(value, Constant) else 0
            try:
                return self.literal(const if coerce is None else
                                    int(const) if want == "i" else float(const))
            except (TypeError, ValueError, OverflowError):
                return f"{coerce}({self.bind(const)})"
        if isinstance(value, Function):
            return self.bind(value, shared=True)
        expr = self.local(value)
        if coerce is None or self.kind(value) == want:
            return expr
        if (value, want) not in self.avail:
            self.avail[value, want] = self.assign(f"{coerce}({expr})")
        return self.avail[value, want]

    def local(self, value: Value) -> str:
        return self.names.setdefault(value, f"v{len(self.names)}")

    def define(self, inst: Instruction, expr: str,
               wrap: Optional[IntType] = None) -> None:
        """Assign *inst*'s local (wrapped to *wrap*)."""
        name = self.local(inst)
        if wrap is None:
            self.assign(expr, name)
        else:
            self.wrapped(expr, wrap, name)
        self.avail.pop((inst, "i"), None)
        self.avail.pop((inst, "f"), None)

    def wrapped(self, expr: str, type_: Type, name: Optional[str] = None) -> str:
        """*expr* wrapped to *type_*'s two's-complement range, in *name*."""
        assert isinstance(type_, IntType)
        if type_.bits == 1:
            return self.assign(f"({expr}) & 1", name)
        half = 1 << (type_.bits - 1)
        name = self.assign(expr, name)
        self.emit(f"if not {-half} <= {name} < {half}:")
        self.emit(f"    {name} = ({name} + {half} & {2 * half - 1}) - {half}")
        return name

    # .. accounting ............................................................................

    def lowering(self, inst: Instruction, taken: bool = False) -> tuple:
        width = self.engine._effective_vector_width(inst)
        return self.engine.target.lower_cached(
            inst, taken=taken, pc=self.engine._pc_of.get(inst, 0),
            vector_width=width), width

    def flush_run(self, lines_only: bool = False) -> None:
        """Emit the queued retirements, under their gate, constants merged.
        With *lines_only*, only if a queued line may name a local about to
        be reassigned (an edge's phis, an ``alloca``'s address)."""
        if lines_only and all(item.__class__ is MachineOp for item in self.run):
            return
        run, self.run = self.run, []
        indent = self.indent
        if run and self.width:
            self.emit(f"if not {self.gate} % {self.width}:")
            self.indent += "    "
            if self.gated:
                run.append(f"nm += {self.gated}")
        for constant, items in groupby(run, lambda item: item.__class__ is MachineOp):
            items = tuple(items)
            if not constant:
                self.lines.extend(self.indent + line for line in items)
            elif len(items) == 1:
                self.emit(f"pending_append({self.bind(items[0])})")
            else:
                self.emit(f"pending_extend({self.bind(items)})")
        self.indent, self.gated = indent, 0

    def queue(self, width: int, items: list, ops: int) -> None:
        """Queue *items* (ops, or lines retiring them) counting *ops*, to
        retire on every execution or, for a vector *width*, on every
        *width*-th.  Every instruction of a block runs equally often, so one
        counter gates them all -- one per stretch between calls, which may
        re-enter the block -- and one ``if`` a run of equal widths."""
        if width and self.gate is None:
            cell = self.bind([0])
            self.gate = self.assign(f"{cell}[0] + 1")
            self.emit(f"{cell}[0] = {self.gate}")
        if width != self.width:
            self.flush_run()
            self.width = width
        self.run.extend(items)
        if width:
            self.gated += ops
        else:
            self.constant += ops

    def account_plain(self, inst: Instruction, taken: bool = False) -> None:
        ops, width = self.lowering(inst, taken) if self.accounted else ((), 0)
        if ops:
            self.queue(width, list(ops), len(ops))

    def account_memory(self, inst: Instruction, address: str) -> None:
        ops, width = self.lowering(inst) if self.accounted else ((), 0)
        if not ops:
            return      # register-promoted access: nothing retires
        if len(ops) == 1 and ops[0].is_memory:
            op = ops[0]
            lines = [f"pending_append(MachineOp({self.bind(op.opclass, True)}, "
                     f"{op.size_bytes}, {address}, {op.lanes}, {op.taken}, "
                     f"{self.literal(op.target)}, {op.pc}))"]
            if op.size_bytes > 0:
                lines.append(f"pending_mem_append(({address}, {op.size_bytes}, "
                             f"{op.is_store}))")
            self.queue(width, lines, 1)
        else:
            # Several ops per access: lowered per execution, so the address
            # lands wherever the target puts it.
            self.queue(width, [f"general({self.bind(inst)}, {address}, "
                               f"{self.engine._pc_of.get(inst, 0)}, {width})"], 0)

    def leave(self, line: str, charge: bool = False) -> None:
        """Close one exit path: pending constants, the op count (and the
        block's instructions, for exits that skip the loop's tail), *line*."""
        self.flush_run()
        if self.constant:
            self.emit(f"nm += {self.constant}")
        if charge:
            self.emit(f"ni += {self.count}")
        self.emit(line)

    # .. blocks ................................................................................

    def tree(self, blocks: List[BasicBlock]) -> None:
        """The balanced ``if b < k`` dispatch over *blocks* (ids ascending)."""
        if len(blocks) == 1:
            return self.block(blocks[0])
        half = len(blocks) // 2
        indent = self.indent
        for line, part in ((f"if b < {self.ids[blocks[half]]}:", blocks[:half]),
                           ("else:", blocks[half:])):
            self.indent = indent
            self.emit(line)
            self.indent = indent + "    "
            self.tree(part)
        self.indent = indent

    def block(self, block: BasicBlock) -> None:
        body, terminator = self.bodies[block]
        self.avail: Dict[object, str] = {}
        self.run: List[object] = []
        self.constant = self.width = self.gated = 0
        self.gate: Optional[str] = None
        self.allocated: set = set()
        self.current = block
        self.count = len(body) + (terminator is not None)
        for phi in block.phis():
            self.account_plain(phi)
        if all(self.instruction(inst) for inst in body):
            self.terminator(block, terminator)

    def terminator(self, block: BasicBlock, inst: Optional[Instruction]) -> None:
        if inst is None:
            message = (f"block {block.name} in @{self.function.name} fell "
                       "through without a terminator")
            self.leave(f"raise RuntimeError({message!r})", charge=True)
        elif isinstance(inst, Ret):
            self.account_plain(inst, taken=True)
            self.leave(f"return {self.operand(inst.value)}", charge=True)
        elif isinstance(inst, Jump):
            self.account_plain(inst, taken=True)
            self.jump(inst.target)
        else:
            condition = self.operand(inst.condition)
            lowered = [self.lowering(inst, taken) if self.accounted else ((), 0)
                       for taken in (True, False)]
            width = lowered[0][1]
            if width and (lowered[0][0] or lowered[1][0]):
                self.queue(width, [], 0)        # the gate, counted in both arms
            saved = self.run, self.constant, self.avail, self.width, self.gated
            indent = self.indent
            for line, succ, ops in ((f"if {condition}:", inst.then_block, lowered[0][0]),
                                    ("else:", inst.else_block, lowered[1][0])):
                self.run, self.constant, self.avail, self.width, self.gated = (
                    list(saved[0]), saved[1], dict(saved[2]), *saved[3:])
                self.indent = indent
                self.emit(line)
                self.indent = indent + "    "
                if ops:
                    self.queue(width, list(ops), len(ops))
                self.jump(succ)
            self.indent = indent

    def jump(self, succ: BasicBlock) -> None:
        """Assign *succ*'s phis for this edge, in parallel, and select it."""
        phis = succ.phis()
        if phis:
            self.flush_run(lines_only=True)
            sources = [self.operand(phi.incoming_for(self.current)) for phi in phis]
            self.emit(", ".join(self.local(phi) for phi in phis)
                      + " = " + ", ".join(sources))
        self.leave(f"b = {self.ids[succ]}; n = {self.count}")

    def instruction(self, inst: Instruction) -> bool:
        """Emit one non-terminator; False when the rest is unreachable."""
        if isinstance(inst, BinaryOp):
            self.define(inst, *self.binary(inst))
        elif isinstance(inst, CompareOp):
            self.define(inst, f"1 if {self.compare(inst)} else 0")
        elif isinstance(inst, (Load, Store)):
            self.memory(inst)
            return True
        elif isinstance(inst, Alloca):
            self.alloca(inst)
        elif isinstance(inst, GetElementPtr):
            base, scale = self.operand(inst.base, "i"), inst.element_bytes
            if isinstance(inst.index, Constant) and inst.index.value.__class__ is int:
                self.define(inst, f"{base} + {self.literal(inst.index.value * scale)}")
            else:
                self.define(inst, f"{base} + {self.operand(inst.index, 'i')} * {scale}")
        elif isinstance(inst, Call):
            self.call(inst)
            return True
        elif isinstance(inst, Cast):
            self.define(inst, *self.cast(inst))
        elif isinstance(inst, Select):
            self.define(inst, f"{self.operand(inst.true_value)} if "
                              f"{self.operand(inst.condition)} else "
                              f"{self.operand(inst.false_value)}")
        else:
            message = f"cannot execute instruction {inst.opcode}"
            self.leave(f"raise RuntimeError({message!r})", charge=True)
            return False
        self.account_plain(inst)
        return True

    def write_back(self, alloca: Alloca) -> List[str]:
        """Store a localized slot's local at its address, if it has one."""
        _, pack, stack = self.codec(self.slots[alloca][0])
        return [f"try: {pack}({stack}, {self.local(alloca)} - {Memory.STACK_BASE}, "
                f"{self.slots[alloca][1]})", "except NameError: pass"]

    def alloca(self, inst: Alloca) -> None:
        """``stack_alloc``; a localized slot's local starts as its bytes."""
        self.flush_run(lines_only=True)
        if inst in self.reentered:          # the old instance's bytes first
            self.lines.extend(self.indent + line for line in self.write_back(inst))
        self.define(inst, f"stack_alloc({max(1, inst.allocated_bytes)})")
        if inst in self.slots:
            unpack, _, stack = self.codec(self.slots[inst][0])
            self.emit(f"{self.slots[inst][1]} = {unpack}({stack}, "
                      f"{self.local(inst)} - {Memory.STACK_BASE})[0]")
            self.allocated.add(inst)

    def memory(self, inst: Instruction) -> None:
        """A load or store.  An ``alloca``'d slot always lies inside the
        stack segment, so its accesses index the segment directly; a
        localized slot's are its local."""
        pointer = inst.pointer
        type_ = inst.type if isinstance(inst, Load) else inst.value.type
        if pointer in self.slots:
            address = self.local(pointer)
            if isinstance(inst, Load):
                self.define(inst, self.slots[pointer][1])
            else:
                self.store_local(inst, pointer, type_)
            self.account_memory(inst, address)
            return
        address = self.operand(pointer, "i")
        slot = None
        if (isinstance(pointer, Alloca)
                and type_.size_bytes() <= max(1, pointer.allocated_bytes)):
            slot = self.codec(type_)
        offset = f"{address} - {Memory.STACK_BASE}"
        if isinstance(inst, Load) and slot:
            self.define(inst, f"{slot[0]}({slot[2]}, {offset})[0]")
        elif isinstance(inst, Load):
            loader = self.bind(self.engine.memory.load_fn(type_))
            self.define(inst, f"{loader}({address})")
        elif slot:
            value = self.operand(inst.value, "f" if isinstance(type_, FloatType) else "i")
            if isinstance(type_, IntType):
                value = self.wrapped(value, type_)
            self.emit(f"{slot[1]}({slot[2]}, {offset}, {value})")
        else:
            storer = self.bind(self.engine.memory.store_fn(type_))
            self.emit(f"{storer}({address}, {self.operand(inst.value)})")
        self.account_memory(inst, address)

    def store_local(self, inst: Store, alloca: Alloca, type_: Type) -> None:
        """A store to a localized slot, converting as ``pack_into`` would."""
        content, home = self.slots[alloca][1:]
        address = self.local(alloca)
        if home is not self.function.entry_block and alloca not in self.allocated:
            self.emit(address)      # unallocated: a use before definition
        if isinstance(type_, FloatType):
            value = self.operand(inst.value, "f")
            if type_.bits == 32:    # rounds, and raises past f32's range
                value = (f"{self.bind(_F32_STRUCT.unpack, True)}("
                         f"{self.bind(_F32_STRUCT.pack, True)}({value}))[0]")
            self.emit(f"{content} = {value}")
        elif isinstance(type_, IntType):
            self.wrapped(self.operand(inst.value, "i"), type_, content)
        else:                       # a pointer outside i64 raises struct.error
            unpack, pack, stack = self.codec(type_)
            value = self.operand(inst.value, "i")
            self.emit(f"if not {-(1 << 63)} <= {value} < {1 << 63}:")
            self.emit(f"    {pack}({stack}, {address} - {Memory.STACK_BASE}, {value})")
            self.emit(f"{content} = {value}")

    def binary(self, inst: BinaryOp) -> tuple:
        """``(expr, type to wrap to or None)`` computing *inst*."""
        opcode = inst.opcode
        if inst.is_float_op:
            lhs, rhs = self.operand(inst.lhs, "f"), self.operand(inst.rhs, "f")
            if opcode in _SYMBOLS:
                return f"{lhs} {_SYMBOLS[opcode]} {rhs}", None
            return f"{self.bind(_FLOAT_BINOPS[opcode], True)}({lhs}, {rhs})", None
        type_ = inst.type
        assert isinstance(type_, IntType)
        bits = type_.bits
        mask = (1 << bits) - 1
        lhs, rhs = self.operand(inst.lhs, "i"), self.operand(inst.rhs, "i")
        if opcode in ("sdiv", "srem", "udiv", "urem"):
            half = 1 << (bits - 1) if bits > 1 else 0
            return (f"{self.bind(_int_divide, True)}({opcode!r}, {lhs}, {rhs}, "
                    f"{half}, {mask})"), None
        if opcode in ("shl", "lshr", "ashr"):
            const = inst.rhs.value if isinstance(inst.rhs, Constant) else None
            amount = (const % bits if const.__class__ is int else f"{rhs} % {bits}")
            if opcode == "lshr":
                return f"({lhs} & {mask}) >> ({amount})", type_
            return f"{lhs} {_SYMBOLS[opcode]} ({amount})", type_
        return f"{lhs} {_SYMBOLS[opcode]} {rhs}", type_

    def compare(self, inst: CompareOp) -> str:
        predicate = inst.predicate
        want = "f" if inst.opcode == "fcmp" else "i"
        lhs, rhs = self.operand(inst.lhs, want), self.operand(inst.rhs, want)
        if predicate == "one":          # ordered: false when either is NaN
            return f"{lhs} < {rhs} or {lhs} > {rhs}"
        if predicate[0] == "u":
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            lhs, rhs = (f"({x} & {(1 << bits) - 1})" for x in (lhs, rhs))
        return f"{lhs} {_SYMBOLS[predicate]} {rhs}"

    def cast(self, inst: Cast) -> tuple:
        """``(expr, type to wrap to or None)`` computing *inst*."""
        opcode, to_type = inst.opcode, inst.type
        if opcode in ("sext", "zext", "trunc"):
            return self.operand(inst.value, "i"), to_type
        if opcode == "fptosi":
            return f"int({self.operand(inst.value)})", to_type
        if opcode == "sitofp":
            return f"float({self.operand(inst.value, 'i')})", None
        if opcode in ("bitcast", "inttoptr", "ptrtoint"):
            return self.operand(inst.value), None
        if opcode not in ("fpext", "fptrunc"):
            raise RuntimeError(f"unhandled cast opcode {opcode}")
        value = self.operand(inst.value, "f")
        if isinstance(to_type, FloatType) and to_type.bits == 32:
            pack, unpack = (self.bind(_F32_STRUCT.pack, True),
                            self.bind(_F32_STRUCT.unpack, True))
            return f"{unpack}({pack}({value}))[0]", None
        return value, None

    def call(self, inst: Call) -> None:
        """Arguments, the call's account, the flush it needs, the call: an
        internal one after the frame's counts sync, an external one
        straight to the callable it resolves to (``dispatch`` raises for a
        name nothing resolves, when executed)."""
        engine = self.engine
        callee = self.internal(inst)
        entry = builtin = None
        if callee is None:
            name = inst.callee if isinstance(inst.callee, str) else inst.callee.name
            entry, observes = engine._external(name)
            if entry is None:
                builtin = _BUILTIN_MATH.get(name)
        args = ", ".join(self.operand(arg, "f" if builtin else None)
                         for arg in inst.operands)
        self.account_plain(inst)
        self.flush_run()
        self.gate = None
        if callee is not None:
            observes = True
            self.emit(self.sync + "; " + self.counters)
            expr = f"(yield from call({self.bind(callee, True)}, [{args}]))"
        elif entry is not None or builtin is not None:
            self.emit("ne += 1")
            expr = f"{self.bind(entry or builtin, True)}({args})"
        else:
            expr = f"dispatch({name!r}, [{args}])"
        if observes and engine.machine is not None:
            self.emit("flush()")
        if inst.type.is_void:
            self.emit(expr)
        else:
            self.define(inst, expr)

    def build(self) -> tuple:
        """Compile the function once: ``(run, {local name: its Value})``."""
        engine, function = self.engine, self.function
        args = "".join(f"{self.local(arg)}, " for arg in function.args)
        entry_phis = [self.local(phi) for phi in function.entry_block.phis()]
        self.indent = " " * 16
        self.tree(function.blocks)
        for line in ("ni += n", "fuel[0] -= n", "if fuel[0] <= 0:",
                     f"    {self.sync}; {self.counters}", "    flush()", "    yield"):
            self.emit(line)
        if self.accounted:
            self.emit(f"elif len(pending) >= {engine._FLUSH_THRESHOLD}:")
            self.emit("    flush()")
        head = [f"    def run({args}*_):",
                f"        per_fn.setdefault({function.name!r}, 0)",
                f"        b = {self.counters}"]
        if entry_phis:      # no edge enters the entry block
            head.append("        " + " = ".join(entry_phis) + " = None")
        head += ["        try:", "            while True:"]
        self.lines += ["        finally:", "            " + self.sync]
        for alloca in self.slots:
            self.lines.extend("            " + line for line in self.write_back(alloca))
        params = ", ".join([_FIXED_PARAMS] + [f"k{i}" for i in range(len(self.objects))])
        source = "\n".join([f"def factory({params}):", *head, *self.lines,
                            "    return run"])
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<predecoded @{function.name}>", "exec"), namespace)
        pending = engine._pending
        run = namespace["factory"](
            pending.append, pending.extend, engine._pending_mem.append, pending,
            engine.stats, engine.stats.per_function_instructions, engine._fuel,
            MachineOp, engine._flush, engine._dispatch_external,
            engine._call_function, engine.memory.stack_alloc,
            engine._account_general, *self.objects)
        values = {local: value for value, local in self.names.items()}
        values.update((content, alloca) for alloca, (_, content, _) in self.slots.items())
        return run, values


class ExecutionEngine:
    """Interprets a module on (optionally) a modelled machine.

    Parameters
    ----------
    module:
        The IR module to execute.
    machine:
        Platform model that accounts time and PMU events.  ``None`` runs the
        program functionally only (fast path for semantics tests).
    target:
        Target lowering; required when *machine* is given.
    task:
        The profiled task whose call stack samples should attribute to.
    memory:
        Shared memory object (one is created if not supplied), so callers can
        pre-allocate and later inspect arrays.
    external_handlers:
        Objects consulted (in order, before the builtin math) for calls to
        declared-only functions.  ``entry(name)`` returns the callable
        implementing *name*, called with the IR arguments as positional
        arguments, or None when the handler does not implement it.  The
        fast path resolves each call site once, at predecode.  An optional
        ``observes_machine(name) -> bool`` says whether an entry point
        reads the machine; one that does not lets the fast path skip the
        flush before calling it.  The roofline runtime registers itself
        this way.
    fast_dispatch:
        Run each function as one generated Python generator (default).
        The slow path is the reference interpreter used by equivalence tests.

    An instruction that raises (a float conversion that overflows, say)
    raises the same exception type and message on both paths.  The state it
    leaves behind is not specified: the reference path has retired and
    counted the instructions before it, the fast path may still hold them
    unflushed, so machine counters and :attr:`stats` differ.  No caller
    reads that state -- ``Session.run`` propagates the error and
    ``run_plan`` records it as a ``RunFailure`` -- so an engine and its
    machine are discarded after a raise.
    """

    #: Pending machine ops are flushed to the machine once the buffer reaches
    #: this size (and always at call/return boundaries).
    _FLUSH_THRESHOLD = 2048

    #: Default preemption quantum of :meth:`run_yielding`, in executed IR
    #: instructions.
    DEFAULT_QUANTUM = 20_000

    def __init__(
        self,
        module: Module,
        machine: Optional[Machine] = None,
        target: Optional[TargetLowering] = None,
        task: Optional[Task] = None,
        memory: Optional[Memory] = None,
        external_handlers: Optional[Sequence[object]] = None,
        fast_dispatch: bool = True,
    ):
        if machine is not None and target is None:
            raise ValueError("a target lowering is required when a machine is given")
        self.module = module
        self.machine = machine
        self.target = target
        self.task = task
        self.memory = memory if memory is not None else Memory()
        self.external_handlers: List[object] = list(external_handlers or [])
        self.stats = ExecutionStats()
        self._vector_counters: Dict[Instruction, int] = {}
        self._pc_of: Dict[Instruction, int] = {}
        self._assign_pcs()
        self.fast_dispatch = fast_dispatch
        # Fast-dispatch state: pending retired ops, the addressed accesses
        # among them in stream order (for the hierarchy's batched
        # access_lines) and each function's generated generator.
        self._pending: List[MachineOp] = []
        self._pending_mem: List[tuple] = []
        self._generated: Dict[Function, tuple] = {}
        # Both dispatch paths decrement the shared fuel cell at block
        # boundaries and yield when it runs out.
        self._fuel: List[int] = [0]

    # -- setup -----------------------------------------------------------------------------

    def _assign_pcs(self) -> None:
        pc = 0x0040_0000
        for function in self.module:
            for block in function.blocks:
                for inst in block.instructions:
                    self._pc_of[inst] = pc
                    pc += 4

    # -- public API -------------------------------------------------------------------------

    def run(self, function_name: str, args: Sequence[object] = ()) -> object:
        """Execute *function_name* with *args*; returns its return value.

        Drains the same generator :meth:`run_yielding` drives.  The fuel cell
        is parked at a value no realistic run exhausts, so the generator runs
        straight through, and restored afterwards: a ``run()`` entered while
        a ``run_yielding()`` of this engine is active (from an external
        handler, mid-quantum) neither spends nor resets that run's fuel.
        """
        function = self._resolve(function_name, args)
        fuel = self._fuel
        saved_fuel = fuel[0]
        fuel[0] = 1 << 62
        try:
            inner = self._call_function(function, list(args))
            while True:
                try:
                    next(inner)
                except StopIteration as stop:
                    return stop.value
        finally:
            fuel[0] = saved_fuel

    def run_yielding(self, function_name: str, args: Sequence[object] = (),
                     quantum: Optional[int] = None):
        """Execute *function_name* as a preemptible generator.

        Yields ``None`` after every *quantum* executed IR instructions (at
        the next basic-block boundary, wherever that is in the call stack)
        and returns the function's return value when it finishes, so a
        scheduler can drive it with ``yield from``.  Pending batched machine
        ops are flushed before every yield; both dispatch paths yield after
        the same dynamic instruction, which keeps multi-hart interleavings
        (and therefore shared-cache state, DRAM contention and sample
        streams) bit-identical between ``fast_dispatch=True`` and ``False``.

        Validation happens here, eagerly -- a bad function name, argument
        count or quantum raises at the call site, not at the scheduler's
        first ``next()``.
        """
        if quantum is None:
            quantum = self.DEFAULT_QUANTUM
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1 (got {quantum})")
        function = self._resolve(function_name, args)
        return self._drive_yielding(function, list(args), quantum)

    def _resolve(self, function_name: str, args: Sequence[object]) -> Function:
        """The defined function *function_name*, checked against *args*."""
        function = self.module.get_function(function_name)
        if function.is_declaration:
            raise ValueError(f"cannot run declaration @{function_name}")
        if len(args) != len(function.args):
            raise ValueError(
                f"@{function_name} expects {len(function.args)} arguments, "
                f"got {len(args)}"
            )
        return function

    def _drive_yielding(self, function: Function, args: List[object],
                        quantum: int):
        """The generator behind :meth:`run_yielding` (already validated)."""
        fuel = self._fuel
        fuel[0] = quantum
        inner = self._call_function(function, args)
        while True:
            try:
                next(inner)
            except StopIteration as stop:
                return stop.value
            yield
            fuel[0] = quantum

    # -- call machinery -----------------------------------------------------------------------

    def _call_function(self, function: Function, args: List[object]):
        """Run one activation of *function* as a generator.

        Yields wherever the frame's dispatch loop (or a callee's) runs out
        of fuel and returns the function's return value.
        """
        token = self.memory.push_stack_frame()
        if self.task is not None:
            entry_pc = 0
            if function.blocks and function.entry_block.instructions:
                entry_pc = self._pc_of[function.entry_block.instructions[0]]
            self.task.push_frame(function.name, pc=entry_pc,
                                 source_file=function.source_file)
        self.stats.calls += 1
        try:
            if not self.fast_dispatch:
                frame = _Frame(function)
                for formal, actual in zip(function.args, args):
                    frame.values[formal] = actual
                return (yield from self._run_frame_slow(frame))
            run, values = self._generated.get(function) or self._generate(function)
            try:
                return (yield from run(*args))
            except UnboundLocalError as exc:
                trace = exc.__traceback__
                while trace.tb_next is not None:
                    trace = trace.tb_next
                value = values.get(str(exc).split("'")[1])
                if value is None or trace.tb_frame.f_code is not run.__code__:
                    raise
                raise RuntimeError(f"value %{value.name} used before definition "
                                   f"in @{function.name}") from None
        finally:
            # Retire anything still pending before the frame pops, so any
            # sampling interrupt attributes to the call stack that executed
            # the ops.
            if self._pending:
                self._flush()
            self.memory.pop_stack_frame(token)
            if self.task is not None:
                self.task.pop_frame()

    def _flush(self) -> None:
        """Retire all pending machine ops on the machine."""
        pending = self._pending
        if pending:
            pending_mem = self._pending_mem
            self.machine.execute_batch(pending, self.task, pending_mem)
            del pending[:]
            del pending_mem[:]

    # -- block loops ---------------------------------------------------------------------------

    def _run_frame_slow(self, frame: _Frame):
        """The reference interpreter's block loop.

        Retires ops one at a time (nothing is ever pending), so a quantum
        boundary is just a yield; it lands after exactly the same executed
        IR instruction as on the fast path because both decrement the one
        fuel cell per block they complete.
        """
        function = frame.function
        per_fn = self.stats.per_function_instructions
        fuel = self._fuel
        block = function.entry_block
        prev_block: Optional[BasicBlock] = None
        while True:
            phis = block.phis()
            if phis:
                incoming = [
                    self._eval(frame, phi.incoming_for(prev_block)) for phi in phis
                ]
                for phi, value in zip(phis, incoming):
                    frame.values[phi] = value
                    self._account(phi, frame)

            next_block: Optional[BasicBlock] = None
            return_value: object = None
            returned = False
            executed = 0
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                self.stats.ir_instructions += 1
                per_fn[function.name] = per_fn.get(function.name, 0) + 1
                executed += 1

                if isinstance(inst, Branch):
                    condition = bool(self._eval(frame, inst.condition))
                    self._account(inst, frame, taken=condition)
                    next_block = inst.then_block if condition else inst.else_block
                    break
                if isinstance(inst, Jump):
                    self._account(inst, frame, taken=True)
                    next_block = inst.target
                    break
                if isinstance(inst, Ret):
                    self._account(inst, frame, taken=True)
                    return_value = (
                        self._eval(frame, inst.value) if inst.value is not None else None
                    )
                    returned = True
                    break

                if isinstance(inst, Call):
                    result = yield from self._execute_call(frame, inst)
                else:
                    result = self._execute(frame, inst)
                if not inst.type.is_void:
                    frame.values[inst] = result

            if returned:
                return return_value
            if next_block is None:
                raise RuntimeError(
                    f"block {block.name} in @{function.name} fell through without "
                    "a terminator"
                )
            fuel[0] -= executed
            if fuel[0] <= 0:
                yield
            prev_block, block = block, next_block

    def _execute_call(self, frame: _Frame, inst: Call):
        """Evaluate a call instruction on the reference path (generator)."""
        args = [self._eval(frame, a) for a in inst.operands]
        self._account(inst, frame)
        callee = inst.callee
        callee_fn: Optional[Function] = None
        if isinstance(callee, Function):
            callee_fn = callee
        elif isinstance(callee, str) and self.module.has_function(callee):
            callee_fn = self.module.get_function(callee)

        if callee_fn is not None and not callee_fn.is_declaration:
            result = yield from self._call_function(callee_fn, args)
            return result
        name = callee if isinstance(callee, str) else callee.name
        return self._dispatch_external(name, args)

    # -- predecoding --------------------------------------------------------------------------

    def _generate(self, function: Function) -> tuple:
        """Generate and compile *function*: ``(run, {local name: Value})``."""
        with _span("predecode", cat="engine", function=function.name,
                   blocks=len(function.blocks)):
            generated = self._generated[function] = _Codegen(self, function).build()
            return generated

    def _effective_vector_width(self, inst: Instruction) -> int:
        """The vector group size the accounting path uses for *inst* (0 = scalar)."""
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                return width
        return 0

    def _external(self, name: str) -> tuple:
        """``(entry, observes)`` for external *name*: the first handler's
        entry point for it (None if no handler has one) and whether calling
        *name* may read the machine (and so needs every pending op retired
        first)."""
        for handler in self.external_handlers:
            entry = handler.entry(name)
            if entry is not None:
                observes = getattr(handler, "observes_machine", None)
                return entry, observes is None or bool(observes(name))
        return None, name not in _BUILTIN_MATH

    def _account_general(self, inst: Instruction, address: int, pc: int,
                         width: int) -> None:
        """Retire a memory access whose lowering is several ops, lowered
        per execution so the address lands wherever the target puts it."""
        lowered = self.target.lower(inst, address=address, pc=pc,
                                    vector_width=width)
        self._pending.extend(lowered)
        # retire_batch's addressed-memory predicate keeps the streams aligned.
        self._pending_mem.extend(
            (op.address, op.size_bytes, op.is_store) for op in lowered
            if op.is_memory and op.address is not None and op.size_bytes > 0)
        self.stats.machine_ops += len(lowered)

    # -- instruction execution (reference path) -------------------------------------------------

    def _eval(self, frame: _Frame, value: Optional[Value]) -> object:
        if value is None:
            return None
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, Function):
            return value
        try:
            return frame.values[value]
        except KeyError:
            raise RuntimeError(
                f"value %{value.name} used before definition in @{frame.function.name}"
            )

    def _execute(self, frame: _Frame, inst: Instruction) -> object:
        if isinstance(inst, BinaryOp):
            result = self._execute_binary(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, CompareOp):
            result = self._execute_compare(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, Load):
            address = int(self._eval(frame, inst.pointer))
            value = self.memory.load_typed(address, inst.type)
            self._account(inst, frame, address=address)
            return value
        if isinstance(inst, Store):
            address = int(self._eval(frame, inst.pointer))
            self.memory.store_typed(address, inst.value.type,
                                    self._eval(frame, inst.value))
            self._account(inst, frame, address=address)
            return None
        if isinstance(inst, Alloca):
            address = self.memory.stack_alloc(max(1, inst.allocated_bytes))
            self._account(inst, frame)
            return address
        if isinstance(inst, GetElementPtr):
            base = int(self._eval(frame, inst.base))
            index = int(self._eval(frame, inst.index))
            self._account(inst, frame)
            return base + index * inst.element_bytes
        if isinstance(inst, Cast):
            result = self._execute_cast(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, Select):
            condition = bool(self._eval(frame, inst.condition))
            result = self._eval(frame, inst.true_value if condition else inst.false_value)
            self._account(inst, frame)
            return result
        raise RuntimeError(f"cannot execute instruction {inst.opcode}")

    def _execute_binary(self, frame: _Frame, inst: BinaryOp) -> object:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        opcode = inst.opcode
        if inst.is_float_op:
            fn = _FLOAT_BINOPS.get(opcode)
            if fn is None:
                raise RuntimeError(f"unhandled binary opcode {opcode}")
            return fn(float(lhs), float(rhs))
        a, b = int(lhs), int(rhs)
        type_ = inst.type
        assert isinstance(type_, IntType)
        if opcode == "add":
            return type_.wrap(a + b)
        if opcode == "sub":
            return type_.wrap(a - b)
        if opcode == "mul":
            return type_.wrap(a * b)
        if opcode == "sdiv":
            if b == 0:
                return 0
            quotient = abs(a) // abs(b)
            return type_.wrap(-quotient if (a < 0) != (b < 0) else quotient)
        if opcode == "udiv":
            # Unsigned semantics: operate on the masked (unsigned) values, not
            # the wrapped signed representation.
            mask = (1 << type_.bits) - 1
            ub = b & mask
            if ub == 0:
                return 0
            return type_.wrap((a & mask) // ub)
        if opcode == "srem":
            if b == 0:
                return 0
            quotient = abs(a) // abs(b)
            signed = -quotient if (a < 0) != (b < 0) else quotient
            return type_.wrap(a - b * signed)
        if opcode == "urem":
            mask = (1 << type_.bits) - 1
            ub = b & mask
            if ub == 0:
                return 0
            return type_.wrap((a & mask) % ub)
        if opcode == "and":
            return type_.wrap(a & b)
        if opcode == "or":
            return type_.wrap(a | b)
        if opcode == "xor":
            return type_.wrap(a ^ b)
        if opcode == "shl":
            return type_.wrap(a << (b % type_.bits))
        if opcode == "lshr":
            mask = (1 << type_.bits) - 1
            return type_.wrap((a & mask) >> (b % type_.bits))
        if opcode == "ashr":
            return type_.wrap(a >> (b % type_.bits))
        raise RuntimeError(f"unhandled binary opcode {opcode}")

    def _execute_compare(self, frame: _Frame, inst: CompareOp) -> int:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        predicate = inst.predicate
        if inst.opcode == "fcmp":
            return int(_FCMP_PREDICATES[predicate](float(lhs), float(rhs)))
        a, b = int(lhs), int(rhs)
        if predicate.startswith("u"):
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            mask = (1 << bits) - 1
            a &= mask
            b &= mask
        table = {
            "eq": a == b, "ne": a != b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        }
        return int(table[predicate])

    def _execute_cast(self, frame: _Frame, inst: Cast) -> object:
        value = self._eval(frame, inst.value)
        opcode = inst.opcode
        to_type = inst.type
        if opcode in ("sext", "zext", "trunc"):
            assert isinstance(to_type, IntType)
            return to_type.wrap(int(value))
        if opcode in ("fpext", "fptrunc"):
            if isinstance(to_type, FloatType) and to_type.bits == 32:
                return _F32_STRUCT.unpack(_F32_STRUCT.pack(float(value)))[0]
            return float(value)
        if opcode == "sitofp":
            return float(int(value))
        if opcode == "fptosi":
            assert isinstance(to_type, IntType)
            return to_type.wrap(int(value))
        if opcode in ("bitcast", "inttoptr", "ptrtoint"):
            return value
        raise RuntimeError(f"unhandled cast opcode {opcode}")

    def _dispatch_external(self, name: str, args: List[object]) -> object:
        self.stats.external_calls += 1
        entry = self._external(name)[0]
        if entry is not None:
            return entry(*args)
        builtin = _BUILTIN_MATH.get(name)
        if builtin is not None:
            return builtin(*[float(a) for a in args])
        raise ExternalCallError(
            f"no handler registered for external function @{name}"
        )

    # -- accounting (reference path) -------------------------------------------------------------

    def _account(self, inst: Instruction, frame: _Frame,
                 address: Optional[int] = None, taken: bool = False) -> None:
        if self.machine is None:
            return
        vector_width = 0
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            # One vector machine op is retired every `width` executions of the
            # annotated instruction; the other executions are lanes of it.
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                count = self._vector_counters.get(inst, 0) + 1
                self._vector_counters[inst] = count
                if count % width != 0:
                    return
                vector_width = width
        pc = self._pc_of.get(inst, 0)
        ops = self.target.lower(inst, address=address, taken=taken, pc=pc,
                                vector_width=vector_width)
        task = self.task
        for op in ops:
            self.stats.machine_ops += 1
            self.machine.execute(op, task)
