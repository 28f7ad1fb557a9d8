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
subset) are dispatched to registered Python handlers.

Dispatch architecture
---------------------

The engine has two dispatch strategies over the same semantics:

* **Fast dispatch** (the default): each function is *predecoded* once, on
  first entry, into generated Python -- one function per basic block, one
  ``compile()`` per function (see :class:`_Codegen`).  What the reference
  interpreter decides per dynamic instruction (instruction class, operand
  kind, opcode, integer wrap, ``struct`` format, vector gate, the target
  lowering memoized by ``TargetLowering.lower_cached``) is decided once
  and written into the source.

  Retired machine ops accumulate in a pending buffer that is flushed in
  chunks through :meth:`~repro.platforms.machine.Machine.execute_batch` --
  before internal calls and before external calls that observe the
  machine, at function return (before the task's stack frame pops, so
  samples attribute correctly) and at a size threshold.  An external
  handler may declare ``observes_machine(name) -> bool``; a handler without
  it is assumed to observe, builtin math does not, and the decision is made
  once per call site.  ``execute_batch`` aggregates event-bus publications
  up to each armed overflow and retires the op that reaches it
  individually; counters, bus totals and samples are bit-identical to the
  per-op path.  The addressed memory accesses of a flush are collected in
  stream order alongside the pending ops and resolved in one batched
  ``hierarchy.access_lines`` call.

* **Slow dispatch** (``fast_dispatch=False``): the original instruction-at-
  a-time interpreter, kept as the reference implementation.  Equivalence
  tests run both engines on the same workload and assert identical results,
  PMU counter values and sample streams.

Preemptible execution
---------------------

Each dispatch path has exactly one block loop, and it is a *generator*;
the call machinery around it is one generator too.  Both public entry
points drive it.  :meth:`ExecutionEngine.run_yielding` yields control after
every *quantum* of executed IR instructions -- the SMP scheduler's time
slice.  :meth:`ExecutionEngine.run` drains the same generator with the fuel
cell parked out of reach, so it never suspends.  The yield points are
decided by one shared fuel counter that both dispatch paths decrement at
basic-block boundaries, so the fast and the slow engine are preempted after
exactly the same dynamic instruction, and a multi-hart schedule (and every
per-hart sample stream) is bit-identical across the two.  Pending batched
machine ops are always flushed *before* yielding: once another hart runs,
the shared LLC and the contended memory controller must have observed every
access this hart already executed, in program order.  Predecode state,
the value environment and the whole call stack survive the yield, so a
thread resumes mid-function exactly where it was preempted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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


def _libm_fminf(a: float, b: float) -> float:
    """``fminf`` with libm NaN semantics: a NaN operand loses."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def _libm_fmaxf(a: float, b: float) -> float:
    """``fmaxf`` with libm NaN semantics: a NaN operand loses."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


#: Builtin math externals (a tiny libm) available to KernelC programs.
_BUILTIN_MATH: Dict[str, Callable] = {
    "sqrtf": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "fabsf": abs,
    "expf": math.exp,
    "logf": lambda x: math.log(x) if x > 0 else float("-inf"),
    "fminf": _libm_fminf,
    "fmaxf": _libm_fmaxf,
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
    """One activation record."""

    __slots__ = ("function", "values", "stack_token")

    def __init__(self, function: Function, stack_token: int):
        self.function = function
        self.values: Dict[Value, object] = {}
        self.stack_token = stack_token


class _Ret:
    """Sentinel returned by a predecoded ``ret`` terminator."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


_RET_NONE = _Ret(None)


class _DecodedBlock:
    """A basic block predecoded into one generated function, ``run(values)
    -> successor | _Ret`` (a generator function when ``is_gen``)."""

    __slots__ = ("name", "run", "is_gen", "phi_nodes", "instr_count")

    def __init__(self, name: str):
        self.name = name
        self.run: Optional[Callable] = None
        self.is_gen = False
        self.phi_nodes: List[Phi] = []
        self.instr_count = 0


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
_FIXED_PARAMS = ("pending_append, pending_extend, pending_mem_append, stats, "
                 "MachineOp, Ret, RET_NONE, flush, dispatch, call, stack_alloc, "
                 "general")


class _Codegen:
    """Python source for one function: one ``def`` per basic block.

    A block's function takes the frame's ``values`` and returns its
    successor's :class:`_DecodedBlock` after assigning the successor's phis
    in parallel (or returns a :class:`_Ret`); one that makes an internal
    call is a generator.  SSA values are Python locals, written to
    ``values`` only when another block or a phi edge reads them.  The
    source is a factory whose parameters bind the objects it refers to.
    """

    def __init__(self, engine: "ExecutionEngine", function: Function,
                 dmap: Dict[BasicBlock, _DecodedBlock]):
        self.engine = engine
        self.function = function
        self.dmap = dmap
        self.accounted = engine.machine is not None
        self.objects: List[object] = []
        self.shared: Dict[object, str] = {}
        self.names: Dict[Value, str] = {}
        self.kinds: Dict[Value, Optional[str]] = {}
        self.slots: Dict[Type, Optional[tuple]] = {}
        self.source: List[str] = []
        self.temps = 0
        # Values another block or a phi edge reads; a use before the
        # definition in the same block reads the previous execution's.
        home: Dict[Value, tuple] = {}
        bodies = []
        for block in function.blocks:
            body: List[Instruction] = []
            for inst in block.instructions:
                if not isinstance(inst, Phi):
                    home[inst] = (block, len(body))
                    body.append(inst)
                    if inst.is_terminator:
                        break
            bodies.append((block, body))
        self.stored: Dict[Value, bool] = {}
        for block, body in bodies:
            for index, inst in enumerate(body):
                for operand in inst.operands:
                    where = home.get(operand, (block, -1))
                    if where[0] is not block or where[1] >= index:
                        self.stored[operand] = True
            for phi in block.phis():
                for value, pred in phi.incoming:
                    if home.get(value, (pred,))[0] is not pred:
                        self.stored[value] = True

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

    def operand(self, value: Optional[Value], want: Optional[str] = None,
                lazy: bool = False) -> str:
        """*value* as a name or literal, coerced to int (*want* ``"i"``) or
        float (``"f"``).  A value of another block is read from ``values``
        on first use -- inline when *lazy*, so an untaken arm is never read.
        """
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
            expr = self.bind(value, shared=True)
        elif value in self.avail:
            expr = self.avail[value]
        elif lazy:
            expr = f"values[{self.bind(value, shared=True)}]"
        else:
            expr = self.avail[value] = self.assign(
                f"values[{self.bind(value, shared=True)}]", self.local(value))
        if coerce is None or self.kind(value) == want:
            return expr
        if lazy:
            return f"{coerce}({expr})"
        if (value, want) not in self.avail:
            self.avail[value, want] = self.assign(f"{coerce}({expr})")
        return self.avail[value, want]

    def local(self, value: Value) -> str:
        return self.names.setdefault(value, f"v{len(self.names)}")

    def define(self, inst: Instruction, expr: str,
               wrap: Optional[IntType] = None) -> None:
        """Assign *inst*'s local (wrapped to *wrap*), stored when read elsewhere."""
        name = self.avail[inst] = self.local(inst)
        if wrap is None:
            self.assign(expr, name)
        else:
            self.wrapped(expr, wrap, name)
        if inst in self.stored:
            self.emit(f"values[{self.bind(inst, shared=True)}] = {name}")
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

    def flush_run(self) -> None:
        """Emit the merged constant lowerings accumulated so far."""
        if len(self.run) == 1:
            self.emit(f"pending_append({self.bind(self.run[0])})")
        elif self.run:
            self.emit(f"pending_extend({self.bind(tuple(self.run))})")
        self.run = []

    def open_gate(self, width: int) -> str:
        """Count a lane of a vector-annotated instruction; the condition
        under which this execution retires the group's vector op."""
        self.flush_run()
        cell = self.bind([0])
        count = self.assign(f"{cell}[0] + 1")
        self.emit(f"{cell}[0] = {count}")
        return f"not {count} % {width}"

    def account(self, ops: tuple, width: int, gate: Optional[str] = None) -> None:
        if ops and not width:
            self.run.extend(ops)
            self.constant += len(ops)
        elif ops:
            self.emit(f"if {gate or self.open_gate(width)}:")
            self.emit(f"    pending_extend({self.bind(ops)})")
            self.emit(f"    stats.machine_ops += {len(ops)}")

    def account_plain(self, inst: Instruction, taken: bool = False) -> None:
        if self.accounted:
            self.account(*self.lowering(inst, taken))

    def account_memory(self, inst: Instruction, address: str) -> None:
        ops, width = self.lowering(inst) if self.accounted else ((), 0)
        if not ops:
            return      # register-promoted access: nothing retires
        indent = self.indent
        gate = self.open_gate(width) if width else self.flush_run()
        if gate:
            self.emit(f"if {gate}:")
            self.indent += "    "
        if len(ops) == 1 and ops[0].is_memory:
            op = ops[0]
            self.emit(f"pending_append(MachineOp({self.bind(op.opclass, True)}, "
                      f"{op.size_bytes}, {address}, {op.lanes}, {op.taken}, "
                      f"{self.literal(op.target)}, {op.pc}))")
            if op.size_bytes > 0:
                self.emit(f"pending_mem_append(({address}, {op.size_bytes}, "
                          f"{op.is_store}))")
            if gate:
                self.emit("stats.machine_ops += 1")
            else:
                self.constant += 1
        else:
            # Several ops per access: lowered per execution, so the address
            # lands wherever the target puts it.
            self.emit(f"general({self.bind(inst)}, {address}, "
                      f"{self.engine._pc_of.get(inst, 0)}, {width})")
        self.indent = indent

    def leave(self, line: str) -> None:
        """Close one exit path: pending constants, the op count, *line*."""
        self.flush_run()
        if self.constant:
            self.emit(f"stats.machine_ops += {self.constant}")
        self.emit(line)

    # .. blocks ................................................................................

    def block(self, block: BasicBlock, body: List[Instruction],
              terminator: Optional[Instruction]) -> bool:
        """Generate *block*'s function; whether it is a generator."""
        self.lines: List[str] = []
        self.indent = "        "
        self.avail: Dict[object, str] = {}
        self.run: List[MachineOp] = []
        self.constant = 0
        self.is_gen = False
        self.current = block
        for phi in block.phis():
            self.account_plain(phi)
        if all(self.instruction(inst) for inst in body):
            self.terminator(block, terminator)
        self.source.append(f"    def {self.bind(self.dmap[block], True)}_run(values):")
        self.source.extend(self.lines)
        return self.is_gen

    def terminator(self, block: BasicBlock, inst: Optional[Instruction]) -> None:
        if inst is None:
            message = (f"block {block.name} in @{self.function.name} fell "
                       "through without a terminator")
            self.leave(f"raise RuntimeError({message!r})")
        elif isinstance(inst, Ret):
            self.account_plain(inst, taken=True)
            self.leave("return RET_NONE" if inst.value is None
                       else f"return Ret({self.operand(inst.value)})")
        elif isinstance(inst, Jump):
            self.account_plain(inst, taken=True)
            self.jump(inst.target)
        else:
            condition = self.operand(inst.condition)
            lowered = [self.lowering(inst, taken) if self.accounted else ((), 0)
                       for taken in (True, False)]
            width = lowered[0][1]
            gate = (self.open_gate(width)
                    if width and (lowered[0][0] or lowered[1][0]) else None)
            saved = self.run, self.constant, self.avail
            self.emit(f"if {condition}:")
            indent = self.indent
            for succ, ops, inner in ((inst.then_block, lowered[0][0], "    "),
                                     (inst.else_block, lowered[1][0], "")):
                self.run, self.constant, self.avail = (
                    list(saved[0]), saved[1], dict(saved[2]))
                self.indent = indent + inner
                self.account(ops, width, gate)
                self.jump(succ)
            self.indent = indent

    def jump(self, succ: BasicBlock) -> None:
        """Assign *succ*'s phis for this edge, in parallel, and return it."""
        phis = succ.phis()
        if phis:
            sources = [self.operand(phi.incoming_for(self.current), lazy=True)
                       for phi in phis]
            self.emit(", ".join(f"values[{self.bind(phi, True)}]" for phi in phis)
                      + " = " + ", ".join(sources))
        self.leave(f"return {self.bind(self.dmap[succ], True)}")

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
            self.define(inst, f"stack_alloc({max(1, inst.allocated_bytes)})")
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
            self.define(inst, f"{self.operand(inst.true_value, lazy=True)} if "
                              f"{self.operand(inst.condition)} else "
                              f"{self.operand(inst.false_value, lazy=True)}")
        else:
            message = f"cannot execute instruction {inst.opcode}"
            self.leave(f"raise RuntimeError({message!r})")
            return False
        self.account_plain(inst)
        return True

    def memory(self, inst: Instruction) -> None:
        """A load or store.  An ``alloca``'d slot always lies inside the
        stack segment, so its accesses index the segment directly."""
        address = self.operand(inst.pointer, "i")
        type_ = inst.type if isinstance(inst, Load) else inst.value.type
        slot = None
        pointer = inst.pointer
        if (isinstance(pointer, Alloca)
                and type_.size_bytes() <= max(1, pointer.allocated_bytes)):
            if type_ not in self.slots:
                codec = self.engine.memory.stack_slot(type_)
                self.slots[type_] = codec and [self.bind(obj) for obj in codec]
            slot = self.slots[type_]
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
        """Arguments, the call's account, the flush it needs, the call."""
        engine = self.engine
        args = ", ".join(self.operand(arg) for arg in inst.operands)
        self.account_plain(inst)
        self.flush_run()
        callee = inst.callee
        if isinstance(callee, str) and engine.module.has_function(callee):
            callee = engine.module.get_function(callee)
        if isinstance(callee, Function) and not callee.is_declaration:
            observes = True
            self.is_gen = True
            expr = f"(yield from call({self.bind(callee, True)}, [{args}]))"
        else:
            name = callee if isinstance(callee, str) else callee.name
            observes = engine._observes_machine(name)
            expr = f"dispatch({name!r}, [{args}])"
        if observes and engine.machine is not None:
            self.emit("flush()")
        if inst.type.is_void:
            self.emit(expr)
        else:
            self.define(inst, expr)

    def build(self) -> List[Callable]:
        """Compile the function once; its block functions, in block order."""
        engine = self.engine
        params = ", ".join([_FIXED_PARAMS] + [f"k{i}" for i in range(len(self.objects))])
        blocks = ", ".join(self.shared[d] + "_run" for d in self.dmap.values())
        source = "\n".join([f"def factory({params}):", *self.source,
                            f"    return ({blocks},)"])
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<predecoded @{self.function.name}>", "exec"),
             namespace)
        pending = engine._pending
        return namespace["factory"](
            pending.append, pending.extend, engine._pending_mem.append,
            engine.stats, MachineOp, _Ret, _RET_NONE, engine._flush,
            engine._dispatch_external, engine._call_function,
            engine.memory.stack_alloc, engine._account_general, *self.objects)


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
        Objects with ``handles(name) -> bool`` and ``call(name, args)``
        methods consulted (in order) for calls to declared-only functions,
        and optionally ``observes_machine(name) -> bool``: an entry point
        that does not read the machine lets the fast path skip the flush
        before calling it.  The roofline runtime registers itself this way.
    fast_dispatch:
        Run each function as generated per-block Python (default).  The
        slow path is the reference interpreter used by equivalence tests.
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
        # access_lines) and each function's generated entry block.
        self._pending: List[MachineOp] = []
        self._pending_mem: List[tuple] = []
        self._decoded: Dict[Function, _DecodedBlock] = {}
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

    def register_external_handler(self, handler: object) -> None:
        self.external_handlers.append(handler)
        # Call sites already generated decided their flushes without it.
        self._decoded.clear()

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
        frame = _Frame(function, self.memory.push_stack_frame())
        for formal, actual in zip(function.args, args):
            frame.values[formal] = actual
        if self.task is not None:
            entry_pc = 0
            if function.blocks and function.entry_block.instructions:
                entry_pc = self._pc_of[function.entry_block.instructions[0]]
            self.task.push_frame(function.name, pc=entry_pc,
                                 source_file=function.source_file)
        self.stats.calls += 1
        try:
            if self.fast_dispatch:
                result = yield from self._run_frame_predecoded(frame)
            else:
                result = yield from self._run_frame_slow(frame)
            return result
        finally:
            # Retire anything still pending before the frame pops, so any
            # sampling interrupt attributes to the call stack that executed
            # the ops.
            if self._pending:
                self._flush()
            self.memory.pop_stack_frame(frame.stack_token)
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

    def _run_frame_predecoded(self, frame: _Frame):
        """The fast path's block loop (a generator, like the reference one).

        Runs the frame's generated block functions; a block that makes an
        internal call is itself a generator and is delegated to (``yield
        from``), so a preemption inside the callee propagates up through
        the caller's frames.  The shared fuel cell is decremented by each
        block's instruction count -- when it runs out, pending ops are
        flushed and control is yielded.
        """
        function = frame.function
        block = self._decoded.get(function)
        if block is None:
            block = self._decode_function(function)
        values = frame.values
        stats = self.stats
        per_fn = stats.per_function_instructions
        fname = function.name
        pending = self._pending
        flush = self._flush
        threshold = self._FLUSH_THRESHOLD
        fuel = self._fuel
        # Phis read the incoming edge's value; entering the function there
        # is no edge, so the entry block's phis are None.
        for phi in block.phi_nodes:
            values[phi] = None
        try:
            while True:
                count = block.instr_count
                stats.ir_instructions += count
                per_fn[fname] = per_fn.get(fname, 0) + count
                if block.is_gen:
                    nxt = yield from block.run(values)
                else:
                    nxt = block.run(values)
                if nxt.__class__ is _Ret:
                    return nxt.value
                fuel[0] -= count
                if fuel[0] <= 0:
                    if pending:
                        flush()
                    yield
                elif len(pending) >= threshold:
                    flush()
                block = nxt
        except KeyError as exc:
            key = exc.args[0] if exc.args else None
            if isinstance(key, Value):
                raise RuntimeError(
                    f"value %{key.name} used before definition in "
                    f"@{frame.function.name}"
                ) from None
            raise

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

    def _decode_function(self, function: Function) -> _DecodedBlock:
        """Generate and compile *function*'s blocks; its entry block."""
        with _span("predecode", cat="engine", function=function.name,
                   blocks=len(function.blocks)):
            dmap = {block: _DecodedBlock(block.name) for block in function.blocks}
            gen = _Codegen(self, function, dmap)
            for block in function.blocks:
                self._decode_block(block, gen)
            for decoded, run in zip(dmap.values(), gen.build()):
                decoded.run = run
            entry = self._decoded[function] = dmap[function.entry_block]
            return entry

    def _decode_block(self, block: BasicBlock, gen: _Codegen) -> None:
        d = gen.dmap[block]
        d.phi_nodes = block.phis()
        body: List[Instruction] = []
        terminator: Optional[Instruction] = None
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            if isinstance(inst, (Branch, Jump, Ret)):
                terminator = inst
                break
            body.append(inst)
        d.instr_count = len(body) + (terminator is not None)
        d.is_gen = gen.block(block, body, terminator)

    def _effective_vector_width(self, inst: Instruction) -> int:
        """The vector group size the accounting path uses for *inst* (0 = scalar)."""
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                return width
        return 0

    def _observes_machine(self, name: str) -> bool:
        """Whether a call to external *name* may read the machine (and so
        needs every pending op retired first)."""
        for handler in self.external_handlers:
            if handler.handles(name):
                observes = getattr(handler, "observes_machine", None)
                return observes is None or bool(observes(name))
        return name not in _BUILTIN_MATH

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
        for handler in self.external_handlers:
            if handler.handles(name):
                return handler.call(name, args)
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
