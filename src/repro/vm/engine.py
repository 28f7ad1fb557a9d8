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
  first entry, into per-basic-block lists of closure-compiled executor
  thunks.  All the per-step decisions the naive interpreter repeats on every
  dynamic instruction -- the ``isinstance`` chain over instruction classes,
  operand classification (constant vs. SSA value), opcode/predicate table
  lookups, integer wrap parameters, ``struct`` format selection for memory
  accesses, vector-annotation checks and the target lowering itself -- are
  resolved at predecode time and captured in the closures.  Target lowerings
  are memoized per ``(instruction, taken, vector_width)`` through
  :meth:`~repro.compiler.targets.base.TargetLowering.lower_cached`, with the
  effective address of memory ops patched into the cached template at
  execution time.

  Retired machine ops are not handed to the machine one at a time either:
  they accumulate in a pending buffer that is flushed in chunks through
  :meth:`~repro.platforms.machine.Machine.execute_batch` -- at call
  boundaries (external handlers read the machine clock), at function return
  (before the task's stack frame pops, so samples attribute correctly) and
  when the buffer reaches a size threshold.  ``execute_batch`` aggregates
  event-bus publications up to each armed overflow and retires the op that
  reaches it individually; final counter values, bus totals, sample counts
  and sample contents are bit-identical to the per-op path.

  On top of the batching, basic blocks that retire no addressed memory ops,
  no conditional branches, no calls and no vector-gated ops are classified
  at predecode time and retired through a precomputed
  :class:`~repro.cpu.core.BlockDelta` signature -- one sentinel per block
  execution instead of the block's op stream (see ``block_delta`` below).
  The addressed memory accesses of a flush are collected in stream order
  alongside the pending ops and resolved in one batched
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
from repro.analysis.blockdelta import STATIC_DELTA_KEY
from repro.analysis.blockdelta import target_key as _static_target_key
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import FloatType, IntType, Type
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


class _PendingCall:
    """Sentinel returned by every compiled internal-call step.

    The block loop sees it and delegates to the call machinery
    (``yield from``), so a preemption inside the callee propagates all the
    way up through the caller's frames.
    """

    __slots__ = ("callee", "args", "dest")

    def __init__(self, callee: "Function", args: List[object],
                 dest: Optional[Instruction]):
        self.callee = callee
        self.args = args
        self.dest = dest


class _DecodedBlock:
    """A basic block predecoded into executor thunks."""

    __slots__ = ("name", "steps", "terminator", "phi_nodes", "phi_sources",
                 "phi_accounts", "instr_count", "delta")

    def __init__(self, name: str):
        self.name = name
        self.steps: List[Callable[[dict], None]] = []
        self.terminator: Optional[Callable[[dict], object]] = None
        self.phi_nodes: List[Phi] = []
        # Predecessor decoded block -> per-phi operand getters.
        self.phi_sources: Dict["_DecodedBlock", List[Callable[[dict], object]]] = {}
        self.phi_accounts: Optional[List[Callable[[], None]]] = None
        self.instr_count = 0
        # Precomputed retirement signature (BlockDelta) of a memory-free,
        # branch-free, call-free block; None when the block must account per
        # op.  When set, the steps are compiled without account thunks and
        # one sentinel is appended to the pending stream per execution.
        self.delta = None


class _DecodedFunction:
    __slots__ = ("entry",)

    def __init__(self, entry: _DecodedBlock):
        self.entry = entry


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
        methods consulted (in order) for calls to declared-only functions.
        The roofline runtime registers itself this way.
    fast_dispatch:
        Use the predecode + closure-dispatch execution path (default).  The
        slow path is the reference interpreter used by equivalence tests.
    block_delta:
        Retire memory-free, branch-free, call-free basic blocks through
        precomputed :class:`~repro.cpu.core.BlockDelta` signatures (default;
        fast dispatch only).  Such a block's retirement cost and event
        pulses are constants of the core config, so one sentinel replaces
        the block's per-op account stream.  Counters, cycles and -- because
        the machine expands a sentinel back to per-op retirement when an
        armed overflow falls inside it -- sample streams are bit-identical with
        the flag off; the switch exists for differential suites.
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
        block_delta: bool = True,
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
        self._vector_counters: Dict[int, int] = {}
        self._pc_of: Dict[int, int] = {}
        self._assign_pcs()
        self.fast_dispatch = fast_dispatch
        self.block_delta = block_delta
        # Fast-dispatch state: the pending retired-op buffer (plus the
        # stream-ordered addressed memory accesses it contains, handed to the
        # hierarchy's batched access_lines) and the per-function predecode
        # cache.
        self._pending: List[MachineOp] = []
        self._pending_mem: List[tuple] = []
        self._suppress_accounts = False
        self._decoded: Dict[Function, _DecodedFunction] = {}
        # Both dispatch paths decrement the shared fuel cell at block
        # boundaries and yield when it runs out.
        self._fuel: List[int] = [0]

    # -- setup -----------------------------------------------------------------------------

    def _assign_pcs(self) -> None:
        pc = 0x0040_0000
        for function in self.module:
            for block in function.blocks:
                for inst in block.instructions:
                    self._pc_of[id(inst)] = pc  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
                    pc += 4

    def register_external_handler(self, handler: object) -> None:
        self.external_handlers.append(handler)

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
                entry_pc = self._pc_of[id(function.entry_block.instructions[0])]  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
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
            self.machine.execute_batch(pending, self.task,
                                       pending_mem if pending_mem else None)
            del pending[:]
            if pending_mem:
                del pending_mem[:]

    # -- block loops ---------------------------------------------------------------------------

    def _run_frame_predecoded(self, frame: _Frame):
        """The fast path's block loop (a generator, like the reference one).

        Runs the frame's predecoded blocks.  A compiled internal-call step
        returns a :class:`_PendingCall` that is delegated to
        :meth:`_call_function` (``yield from``), so a preemption inside the
        callee propagates up through the caller's frames.  The shared fuel
        cell is decremented by each block's instruction count -- when it
        runs out, pending ops are flushed and control is yielded.
        """
        function = frame.function
        decoded = self._decoded.get(function)
        if decoded is None:
            decoded = self._decode_function(function)
        values = frame.values
        stats = self.stats
        per_fn = stats.per_function_instructions
        fname = function.name
        pending = self._pending
        flush = self._flush
        threshold = self._FLUSH_THRESHOLD
        fuel = self._fuel
        call = self._call_function
        block = decoded.entry
        prev: Optional[_DecodedBlock] = None
        try:
            while True:
                phis = block.phi_nodes
                if phis:
                    getters = block.phi_sources.get(prev)
                    if getters is None:
                        for phi in phis:
                            values[phi] = None
                    else:
                        incoming = [g(values) for g in getters]
                        for phi, value in zip(phis, incoming):
                            values[phi] = value
                    accounts = block.phi_accounts
                    if accounts is not None:
                        for account in accounts:
                            account()
                count = block.instr_count
                stats.ir_instructions += count
                per_fn[fname] = per_fn.get(fname, 0) + count
                for step in block.steps:
                    marker = step(values)
                    if marker is not None:
                        result = yield from call(marker.callee, marker.args)
                        if marker.dest is not None:
                            values[marker.dest] = result
                nxt = block.terminator(values)
                delta = block.delta
                if delta is not None:
                    pending.append(delta)
                    stats.machine_ops += delta.instructions
                if nxt.__class__ is _Ret:
                    return nxt.value
                fuel[0] -= count
                if fuel[0] <= 0:
                    if pending:
                        flush()
                    yield
                elif len(pending) >= threshold:
                    flush()
                prev = block
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

    def _decode_function(self, function: Function) -> _DecodedFunction:
        with _span("predecode", cat="engine", function=function.name,
                   blocks=len(function.blocks)):
            dmap = {block: _DecodedBlock(block.name) for block in function.blocks}
            for block in function.blocks:
                self._decode_block(function, block, dmap)
            decoded = _DecodedFunction(dmap[function.entry_block])
            self._decoded[function] = decoded
            return decoded

    def _decode_block(self, function: Function, block: BasicBlock,
                      dmap: Dict[BasicBlock, _DecodedBlock]) -> None:
        d = dmap[block]
        phis = block.phis()
        if phis:
            d.phi_nodes = phis
            preds: List[BasicBlock] = []
            for phi in phis:
                for _value, pred in phi.incoming:
                    if pred not in preds:
                        preds.append(pred)
            for pred in preds:
                d.phi_sources[dmap[pred]] = [
                    self._compile_operand(phi.incoming_for(pred)) for phi in phis
                ]
            accounts = [self._compile_plain_account(phi) for phi in phis]
            if any(account is not None for account in accounts):
                d.phi_accounts = [a for a in accounts if a is not None]

        body: List[Instruction] = []
        terminator: Optional[Instruction] = None
        count = 0
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            count += 1
            if isinstance(inst, (Branch, Jump, Ret)):
                terminator = inst
                break
            body.append(inst)
        d.instr_count = count
        delta = self._classify_block_delta(block, body, terminator)
        if delta is not None:
            # The delta carries the whole block's constant retirement
            # signature; compile the executor thunks accounting-free.
            d.delta = delta
            self._suppress_accounts = True
        try:
            d.steps = [self._compile_inst(inst) for inst in body]
            if terminator is None:
                block_name, function_name = block.name, function.name

                def fell_through(values: dict) -> object:
                    raise RuntimeError(
                        f"block {block_name} in @{function_name} fell through "
                        "without a terminator"
                    )

                d.terminator = fell_through
            else:
                d.terminator = self._compile_terminator(terminator, dmap)
        finally:
            self._suppress_accounts = False

    def _classify_block_delta(self, block: BasicBlock, body: List[Instruction],
                              terminator: Optional[Instruction]):
        """The block's :class:`~repro.cpu.core.BlockDelta`, or None.

        A block qualifies when every op it retires has a cost that is a
        constant of the core config: no addressed memory ops (register-
        promoted accesses lower to nothing and are fine), no conditional
        branch terminator (predictor state feeds the cost), no calls (they
        flush at frame boundaries and run other blocks), and no
        vector-annotated instructions (their accounts fire on every
        ``width``-th execution, so the per-execution delta is not constant).
        Signatures are cached per (block, core config) on the machine.

        Modules that went through the compile pipeline carry static
        eligibility verdicts (:mod:`repro.analysis.blockdelta`); this method
        cross-checks its decision against them and raises on divergence, so
        a drift between the static model and the engine fails loudly.
        """
        if self.machine is None or not self.block_delta:
            return None
        delta = self._classify_block_delta_runtime(block, body, terminator)
        stats = self.machine.delta_stats
        stats["eligible" if delta is not None else "ineligible"] += 1
        self._cross_check_static_delta(block, delta is not None)
        return delta

    def _classify_block_delta_runtime(self, block: BasicBlock,
                                      body: List[Instruction],
                                      terminator: Optional[Instruction]):
        """The runtime eligibility decision (machine/flag gates already passed)."""
        if terminator is None or isinstance(terminator, Branch):
            return None
        cache = self.machine.block_deltas
        cached = cache.get(block)
        if cached is not None:
            self.machine.delta_stats["cache_hits"] += 1
            return cached
        lower = self.target.lower_cached
        pc_of = self._pc_of
        ops: List[MachineOp] = []
        for inst in body:
            if isinstance(inst, Call) or self._effective_vector_width(inst):
                return None
            lowered = lower(inst, pc=pc_of.get(id(inst), 0))  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
            for op in lowered:
                if op.is_memory:
                    return None
            ops.extend(lowered)
        if self._effective_vector_width(terminator):
            return None
        ops.extend(lower(terminator, taken=True,
                         pc=pc_of.get(id(terminator), 0)))  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        if not ops:
            return None
        delta = self.machine.core.block_delta_for(ops)
        cache[block] = delta
        self.machine.delta_stats["cache_misses"] += 1
        return delta

    def _cross_check_static_delta(self, block: BasicBlock,
                                  runtime_eligible: bool) -> None:
        """Compare the runtime decision with the certified static verdict.

        Uncertified modules (hand-built IR in tests, modules that bypassed
        ``compile_source_cached``) carry no verdicts and are skipped; for
        certified ones a disagreement is a bug in either the engine or the
        static classifier, never acceptable drift.
        """
        function = block.parent
        if function is None:
            return
        per_target = function.metadata.get(STATIC_DELTA_KEY)
        if not isinstance(per_target, dict):
            return
        verdicts = per_target.get(_static_target_key(self.target))
        if verdicts is None:
            return
        verdict = verdicts.get(block.name)
        if verdict is None:
            return
        if verdict.eligible != runtime_eligible:
            raise RuntimeError(
                f"static block-delta verdict diverges from the engine for "
                f"block {block.name!r} in @{function.name} on target "
                f"{_static_target_key(self.target)}: static says "
                f"{'eligible' if verdict.eligible else f'ineligible ({verdict.reason})'}, "
                f"engine says {'eligible' if runtime_eligible else 'ineligible'}"
            )

    # .. operand access ........................................................................

    def _compile_operand(self, value: Optional[Value]) -> Callable[[dict], object]:
        if value is None:
            return lambda values: None
        if isinstance(value, Constant):
            const = value.value
            return lambda values: const
        if isinstance(value, UndefValue):
            return lambda values: 0
        if isinstance(value, Function):
            function = value
            return lambda values: function
        return lambda values, key=value: values[key]

    # .. accounting closures ...................................................................

    def _effective_vector_width(self, inst: Instruction) -> int:
        """The vector group size the accounting path uses for *inst* (0 = scalar)."""
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                return width
        return 0

    def _guard_account(self, width: int, emit: Callable) -> Callable:
        """Gate *emit* on the vector-lane counter.

        A scalar instruction (``width`` 0) retires on every execution, so
        *emit* is returned as is.  For a vector-annotated instruction the
        returned thunk fires *emit* only on every ``width``-th execution, the
        executions in between being lanes of the one retired vector op.  All
        accounting thunks share this gate so the lane rule lives in exactly
        one place.
        """
        if width == 0:
            return emit
        counter = [0]

        def account_vector(*args) -> None:
            count = counter[0] + 1
            counter[0] = count
            if count % width:
                return
            emit(*args)
        return account_vector

    def _compile_plain_account(self, inst: Instruction,
                               taken: bool = False) -> Optional[Callable[[], None]]:
        """Accounting thunk for instructions whose lowering needs no address.

        Returns ``None`` when nothing would ever be retired (no machine, or
        an empty lowering such as a phi or a bitcast), or when the enclosing
        block retires through a precomputed :class:`~repro.cpu.core.
        BlockDelta` (the delta already carries these ops).
        """
        if self.machine is None or self._suppress_accounts:
            return None
        pc = self._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        width = self._effective_vector_width(inst)
        ops = self.target.lower_cached(inst, taken=taken, pc=pc, vector_width=width)
        n = len(ops)
        if n == 0:
            return None
        pending = self._pending
        stats = self.stats

        def emit() -> None:
            pending.extend(ops)
            stats.machine_ops += n
        return self._guard_account(width, emit)

    def _compile_branch_account(self, inst: Branch) -> Optional[Callable[[bool], None]]:
        if self.machine is None:
            return None
        pc = self._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        width = self._effective_vector_width(inst)
        ops_taken = self.target.lower_cached(inst, taken=True, pc=pc,
                                             vector_width=width)
        ops_not = self.target.lower_cached(inst, taken=False, pc=pc,
                                           vector_width=width)
        if not ops_taken and not ops_not:
            return None
        pending = self._pending
        stats = self.stats

        def emit(taken: bool) -> None:
            ops = ops_taken if taken else ops_not
            pending.extend(ops)
            stats.machine_ops += len(ops)
        return self._guard_account(width, emit)

    def _compile_memory_account(self, inst: Instruction) -> Optional[Callable[[int], None]]:
        """Accounting thunk for loads/stores: cached lowering, address patched."""
        if self.machine is None:
            return None
        pc = self._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        width = self._effective_vector_width(inst)
        ops = self.target.lower_cached(inst, pc=pc, vector_width=width)
        if not ops:
            return None        # register-promoted access: nothing retires
        pending = self._pending
        pending_mem = self._pending_mem
        stats = self.stats
        if len(ops) == 1 and ops[0].is_memory:
            template = ops[0]
            opclass = template.opclass
            size_bytes = template.size_bytes
            lanes = template.lanes
            op_taken = template.taken
            op_target = template.target
            op_pc = template.pc
            is_store = template.is_store
            if size_bytes > 0:
                def emit(address: int) -> None:
                    pending.append(MachineOp(opclass, size_bytes, address,
                                             lanes, op_taken, op_target, op_pc))
                    pending_mem.append((address, size_bytes, is_store))
                    stats.machine_ops += 1
            else:
                def emit(address: int) -> None:
                    pending.append(MachineOp(opclass, size_bytes, address,
                                             lanes, op_taken, op_target, op_pc))
                    stats.machine_ops += 1
            return self._guard_account(width, emit)

        # Exotic lowering (several ops per access): fall back to lowering per
        # execution so the address lands wherever the target puts it.
        target = self.target

        def emit_general(address: int) -> None:
            lowered = target.lower(inst, address=address, pc=pc,
                                   vector_width=width)
            pending.extend(lowered)
            for op in lowered:
                # Mirror retire_batch's addressed-memory predicate so the
                # batched access stream stays aligned with the op stream.
                if op.is_memory and op.address is not None and op.size_bytes > 0:
                    pending_mem.append((op.address, op.size_bytes, op.is_store))
            stats.machine_ops += len(lowered)
        return self._guard_account(width, emit_general)

    # .. instruction compilation ................................................................

    def _wrap_value_step(self, inst: Instruction,
                         compute: Callable[[dict], object],
                         account: Optional[Callable[[], None]]) -> Callable[[dict], None]:
        if account is None:
            def step(values: dict) -> None:
                values[inst] = compute(values)
        else:
            def step(values: dict) -> None:
                values[inst] = compute(values)
                account()
        return step

    def _compile_inst(self, inst: Instruction) -> Callable[[dict], None]:
        if isinstance(inst, BinaryOp):
            compute = self._compile_binary(inst)
            return self._wrap_value_step(inst, compute,
                                         self._compile_plain_account(inst))
        if isinstance(inst, CompareOp):
            compute = self._compile_compare(inst)
            return self._wrap_value_step(inst, compute,
                                         self._compile_plain_account(inst))
        if isinstance(inst, Load):
            return self._compile_load(inst)
        if isinstance(inst, Store):
            return self._compile_store(inst)
        if isinstance(inst, Alloca):
            size = max(1, inst.allocated_bytes)
            stack_alloc = self.memory.stack_alloc
            return self._wrap_value_step(inst, lambda values: stack_alloc(size),
                                         self._compile_plain_account(inst))
        if isinstance(inst, GetElementPtr):
            base_get = self._compile_operand(inst.base)
            index_get = self._compile_operand(inst.index)
            element_bytes = inst.element_bytes

            def compute_gep(values: dict) -> int:
                return int(base_get(values)) + int(index_get(values)) * element_bytes
            return self._wrap_value_step(inst, compute_gep,
                                         self._compile_plain_account(inst))
        if isinstance(inst, Call):
            return self._compile_call(inst)
        if isinstance(inst, Cast):
            compute = self._compile_cast(inst)
            return self._wrap_value_step(inst, compute,
                                         self._compile_plain_account(inst))
        if isinstance(inst, Select):
            cond_get = self._compile_operand(inst.condition)
            true_get = self._compile_operand(inst.true_value)
            false_get = self._compile_operand(inst.false_value)

            def compute_select(values: dict) -> object:
                return true_get(values) if cond_get(values) else false_get(values)
            return self._wrap_value_step(inst, compute_select,
                                         self._compile_plain_account(inst))
        opcode = inst.opcode

        def unexecutable(values: dict) -> None:
            raise RuntimeError(f"cannot execute instruction {opcode}")
        return unexecutable

    def _compile_binary(self, inst: BinaryOp) -> Callable[[dict], object]:
        lhs_get = self._compile_operand(inst.lhs)
        rhs_get = self._compile_operand(inst.rhs)
        opcode = inst.opcode
        if inst.is_float_op:
            fn = _FLOAT_BINOPS.get(opcode)
            if fn is None:
                raise RuntimeError(f"unhandled binary opcode {opcode}")
            return lambda values: fn(float(lhs_get(values)), float(rhs_get(values)))
        type_ = inst.type
        assert isinstance(type_, IntType)
        wrap = type_.wrap
        bits = type_.bits
        mask = (1 << bits) - 1
        if opcode == "add":
            return lambda values: wrap(int(lhs_get(values)) + int(rhs_get(values)))
        if opcode == "sub":
            return lambda values: wrap(int(lhs_get(values)) - int(rhs_get(values)))
        if opcode == "mul":
            return lambda values: wrap(int(lhs_get(values)) * int(rhs_get(values)))
        if opcode == "sdiv":
            def sdiv(values: dict) -> int:
                a, b = int(lhs_get(values)), int(rhs_get(values))
                if b == 0:
                    return 0
                quotient = abs(a) // abs(b)
                return wrap(-quotient if (a < 0) != (b < 0) else quotient)
            return sdiv
        if opcode == "udiv":
            def udiv(values: dict) -> int:
                b = int(rhs_get(values)) & mask
                if b == 0:
                    return 0
                return wrap((int(lhs_get(values)) & mask) // b)
            return udiv
        if opcode == "srem":
            def srem(values: dict) -> int:
                a, b = int(lhs_get(values)), int(rhs_get(values))
                if b == 0:
                    return 0
                quotient = abs(a) // abs(b)
                signed = -quotient if (a < 0) != (b < 0) else quotient
                return wrap(a - b * signed)
            return srem
        if opcode == "urem":
            def urem(values: dict) -> int:
                b = int(rhs_get(values)) & mask
                if b == 0:
                    return 0
                return wrap((int(lhs_get(values)) & mask) % b)
            return urem
        if opcode == "and":
            return lambda values: wrap(int(lhs_get(values)) & int(rhs_get(values)))
        if opcode == "or":
            return lambda values: wrap(int(lhs_get(values)) | int(rhs_get(values)))
        if opcode == "xor":
            return lambda values: wrap(int(lhs_get(values)) ^ int(rhs_get(values)))
        if opcode == "shl":
            return lambda values: wrap(
                int(lhs_get(values)) << (int(rhs_get(values)) % bits))
        if opcode == "lshr":
            return lambda values: wrap(
                (int(lhs_get(values)) & mask) >> (int(rhs_get(values)) % bits))
        if opcode == "ashr":
            return lambda values: wrap(
                int(lhs_get(values)) >> (int(rhs_get(values)) % bits))
        raise RuntimeError(f"unhandled binary opcode {opcode}")

    def _compile_compare(self, inst: CompareOp) -> Callable[[dict], int]:
        lhs_get = self._compile_operand(inst.lhs)
        rhs_get = self._compile_operand(inst.rhs)
        predicate = inst.predicate
        if inst.opcode == "fcmp":
            cmp = _FCMP_PREDICATES[predicate]
            return lambda values: int(cmp(float(lhs_get(values)),
                                          float(rhs_get(values))))
        table = {
            "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
            "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
            "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
            "ult": lambda a, b: a < b, "ule": lambda a, b: a <= b,
            "ugt": lambda a, b: a > b, "uge": lambda a, b: a >= b,
        }
        cmp = table[predicate]
        if predicate.startswith("u"):
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            mask = (1 << bits) - 1
            return lambda values: int(cmp(int(lhs_get(values)) & mask,
                                          int(rhs_get(values)) & mask))
        return lambda values: int(cmp(int(lhs_get(values)), int(rhs_get(values))))

    def _compile_cast(self, inst: Cast) -> Callable[[dict], object]:
        value_get = self._compile_operand(inst.value)
        opcode = inst.opcode
        to_type = inst.type
        if opcode in ("sext", "zext", "trunc"):
            assert isinstance(to_type, IntType)
            wrap = to_type.wrap
            return lambda values: wrap(int(value_get(values)))
        if opcode in ("fpext", "fptrunc"):
            if isinstance(to_type, FloatType) and to_type.bits == 32:
                pack = _F32_STRUCT.pack
                unpack = _F32_STRUCT.unpack
                return lambda values: unpack(pack(float(value_get(values))))[0]
            return lambda values: float(value_get(values))
        if opcode == "sitofp":
            return lambda values: float(int(value_get(values)))
        if opcode == "fptosi":
            assert isinstance(to_type, IntType)
            wrap = to_type.wrap
            return lambda values: wrap(int(value_get(values)))
        if opcode in ("bitcast", "inttoptr", "ptrtoint"):
            return value_get
        raise RuntimeError(f"unhandled cast opcode {opcode}")

    def _compile_load(self, inst: Load) -> Callable[[dict], None]:
        pointer_get = self._compile_operand(inst.pointer)
        loader = self.memory.load_fn(inst.type)
        account = self._compile_memory_account(inst)
        if account is None:
            def step(values: dict) -> None:
                values[inst] = loader(int(pointer_get(values)))
        else:
            def step(values: dict) -> None:
                address = int(pointer_get(values))
                values[inst] = loader(address)
                account(address)
        return step

    def _compile_store(self, inst: Store) -> Callable[[dict], None]:
        value_get = self._compile_operand(inst.value)
        pointer_get = self._compile_operand(inst.pointer)
        storer = self.memory.store_fn(inst.value.type)
        account = self._compile_memory_account(inst)
        if account is None:
            def step(values: dict) -> None:
                storer(int(pointer_get(values)), value_get(values))
        else:
            def step(values: dict) -> None:
                address = int(pointer_get(values))
                storer(address, value_get(values))
                account(address)
        return step

    def _compile_call(self, inst: Call) -> Callable[[dict], None]:
        arg_getters = [self._compile_operand(operand) for operand in inst.operands]
        account = self._compile_plain_account(inst)
        flush = self._flush
        store_result = not inst.type.is_void

        callee = inst.callee
        callee_fn: Optional[Function] = None
        if isinstance(callee, Function):
            callee_fn = callee
        elif isinstance(callee, str) and self.module.has_function(callee):
            callee_fn = self.module.get_function(callee)

        if callee_fn is not None and not callee_fn.is_declaration:
            dest = inst if store_result else None

            def step(values: dict) -> _PendingCall:
                args = [g(values) for g in arg_getters]
                if account is not None:
                    account()
                flush()
                # The block loop performs the call, so a preemption inside
                # the callee propagates through the caller's frames.
                return _PendingCall(callee_fn, args, dest)
            return step

        name = callee if isinstance(callee, str) else callee.name
        dispatch = self._dispatch_external

        def step_external(values: dict) -> None:
            args = [g(values) for g in arg_getters]
            if account is not None:
                account()
            flush()
            result = dispatch(name, args)
            if store_result:
                values[inst] = result
        return step_external

    def _compile_terminator(self, inst: Instruction,
                            dmap: Dict[BasicBlock, _DecodedBlock]) -> Callable[[dict], object]:
        if isinstance(inst, Branch):
            cond_get = self._compile_operand(inst.condition)
            account = self._compile_branch_account(inst)
            then_block = dmap[inst.then_block]
            else_block = dmap[inst.else_block]
            if account is None:
                def branch(values: dict) -> object:
                    return then_block if cond_get(values) else else_block
                return branch

            def branch_accounted(values: dict) -> object:
                condition = bool(cond_get(values))
                account(condition)
                return then_block if condition else else_block
            return branch_accounted
        if isinstance(inst, Jump):
            account = self._compile_plain_account(inst, taken=True)
            target_block = dmap[inst.target]
            if account is None:
                return lambda values: target_block

            def jump(values: dict) -> object:
                account()
                return target_block
            return jump
        assert isinstance(inst, Ret)
        account = self._compile_plain_account(inst, taken=True)
        value_get = (self._compile_operand(inst.value)
                     if inst.value is not None else None)
        if account is None:
            if value_get is None:
                return lambda values: _Ret(None)
            return lambda values: _Ret(value_get(values))
        if value_get is None:
            def ret_void(values: dict) -> object:
                account()
                return _Ret(None)
            return ret_void

        def ret(values: dict) -> object:
            account()
            return _Ret(value_get(values))
        return ret

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
                key = id(inst)  # repro-lint: allow[no-id] -- per-engine lane counter key; ids never order or escape
                count = self._vector_counters.get(key, 0) + 1
                self._vector_counters[key] = count
                if count % width != 0:
                    return
                vector_width = width
        pc = self._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        ops = self.target.lower(inst, address=address, taken=taken, pc=pc,
                                vector_width=vector_width)
        task = self.task
        for op in ops:
            self.stats.machine_ops += 1
            self.machine.execute(op, task)
