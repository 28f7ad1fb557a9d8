"""Differential suite for the engine's generated code.

The fast dispatch path compiles every IR function into one generated Python
generator (block dispatch on an int id, SSA values and non-escaping scalar
slots as locals, inlined integer wraps, merged constant lowerings, parallel
phi assignment on edges, no flush before machine-pure external calls).  The
reference interpreter (``fast_dispatch=False``) is its oracle.

A seeded generator builds small IR functions with ``IRBuilder`` that cover:

* every integer binop at i1/i8/i16/i32/i64, on arguments given negative,
  zero and out-of-range Python ints (so shift amounts are out of range too);
* every icmp/fcmp predicate, on NaN and infinite floats;
* every cast, ``fptrunc`` to f32 included;
* ``select``, ``alloca``, loads and stores of every scalar type, on stack
  slots, stack arrays and heap buffers;
* frontend-shaped slots: f32, f64, i1-i64 and pointer slots stored in one
  block and loaded in others, an ``alloca`` in the loop body that is loaded
  before its first store (reading what the last call left on the stack)
  and live across an internal call, and slots in a recursive helper;
* phis with three predecessors, a self-loop, and two swaps (``a, b = b, a``)
  that only a parallel edge assignment gets right;
* vector-annotated instructions and branches;
* internal calls with return values, and external calls that are pure
  (builtin math, a handler declaring itself machine-pure) or observe the
  machine (a handler that reads its clock).

Every case runs on both paths, with and without a machine; with a machine
the X60's sampling group is armed at a small period.  Return values, memory
bytes (the stack a slot's local is written back to included),
``ExecutionStats``, machine counters, the clocks the observing handler saw
and the full sample stream must be identical.  The fast lane runs seeds
0-15; the ``slow`` twin sweeps 0-199.  The errors the generated code raises
(use before definition, fall-through, unexecutable opcode, a slot store out
of f32 or i64 range) are pinned on both paths too.
"""

import random
import struct
from dataclasses import replace

import pytest

from repro.compiler.ir import (
    F32, F64, I1, I8, I16, I32, I64, Constant, FunctionType, Instruction,
    IRBuilder, Module, PointerType,
)
from repro.compiler.ir.instructions import (
    FCMP_PREDICATES,
    FP_BINARY_OPS,
    ICMP_PREDICATES,
    INT_BINARY_OPS,
)
from repro.compiler.targets import TargetLowering, target_for_platform
from repro.compiler.transforms.vectorize import VECTOR_WIDTH_KEY
from repro.cpu.events import HwEvent
from repro.isa.machine_ops import MachineOp, OpClass
from repro.kernel.perf_event import PerfEventAttr, ReadFormat, SampleType
from repro.platforms import Machine, spacemit_x60
from repro.vm import ExecutionEngine, Memory
from repro.vm.engine import _compiled

INT_TYPES = (I1, I8, I16, I32, I64)
FLOAT_TYPES = (F32, F64)
SCALAR_TYPES = INT_TYPES + FLOAT_TYPES
#: Scalar slot types, the frontend's pointer-typed locals among them.
SLOT_TYPES = SCALAR_TYPES + (PointerType(F32), PointerType(I64))
INT_EDGES = (0, 1, -1, 2, 3, 7, -8, 31, 63, 64, 65, 127, 128, -129, 255, 256,
             32767, -32769, 65535, 2**31 - 1, -2**31, 2**32 + 5, 2**63 - 1,
             -2**63, 2**64 + 3, -(2**70) - 1)
FLOAT_EDGES = (0.0, -0.0, 1.5, -2.25, 0.1, 3.0e38, 1e300, -1e300, 1e-45,
               float("nan"), float("inf"), float("-inf"))
#: Floats are clamped to this magnitude before anything that would raise on
#: a larger one (f32 packing, ``fptosi``, the ``frem`` dividend).
CLAMP = 1e30
#: Bytes of stack compared after a run.
STACK_BYTES = 1 << 16
HEAP_ELEMENTS = 8


class GenHandler:
    """``gen_pure`` declares itself machine-pure; ``gen_observe`` reads the
    machine clock and records what it saw."""

    def __init__(self, machine):
        self.machine = machine
        self.clocks = []

    def entry(self, name):
        return {"gen_pure": self.pure, "gen_observe": self.observe}.get(name)

    def observes_machine(self, name):
        return name == "gen_observe"

    def pure(self, value, other):
        return int(value) * 3 - int(other)

    def observe(self, value):
        clock = self.machine.clock() if self.machine is not None else 0
        self.clocks.append(clock)
        return clock + (int(value) & 0xFF)


class KernelGenerator:
    """One seeded random module: ``kernel`` plus an internal ``helper``."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.module = Module(f"gen{seed}")
        for name, arity in (("sqrtf", 1), ("fabsf", 1), ("logf", 1),
                            ("fminf", 2), ("fmaxf", 2)):
            self.module.declare_function(name, FunctionType(F32, [F32] * arity))
        for name, arity in (("gen_pure", 2), ("gen_observe", 1)):
            self.module.declare_function(name, FunctionType(I64, [I64] * arity))
        self.helper = self._build_helper()
        self.recursive = self._build_recursive()
        params = [I64] + list(SCALAR_TYPES) + [PointerType(t) for t in SCALAR_TYPES]
        names = (["n"] + [f"a_{t}" for t in SCALAR_TYPES]
                 + [f"p_{t}" for t in SCALAR_TYPES])
        self.function = self.module.create_function(
            "kernel", FunctionType(I64, params), names)
        self._build_kernel()

    # -- building blocks ----------------------------------------------------------------

    def vectorize(self, inst):
        if self.rng.random() < 0.15:
            inst.metadata[VECTOR_WIDTH_KEY] = self.rng.choice((2, 4, 8, 16))
        return inst

    def add(self, value):
        self.pool.setdefault(value.type, []).append(value)
        return value

    def pick(self, type_):
        if self.rng.random() < 0.25 or not self.pool.get(type_):
            edges = FLOAT_EDGES if type_ in FLOAT_TYPES else INT_EDGES
            return Constant(type_, self.rng.choice(edges))
        return self.rng.choice(self.pool[type_])

    def clamp(self, b, value):
        """*value* if finite and within ``CLAMP``, else 0.0."""
        type_ = value.type
        inside = b.binary("and", b.fcmp("ogt", value, Constant(type_, -CLAMP)),
                          b.fcmp("olt", value, Constant(type_, CLAMP)))
        return b.select(inside, value, Constant(type_, 0.0))

    def storable(self, b, type_):
        if isinstance(type_, PointerType):     # somewhere in a heap buffer
            index = b.binary("and", self.pick(I64), Constant(I64, HEAP_ELEMENTS - 1))
            return b.gep(self.heap[type_.pointee], index)
        value = self.pick(type_)
        return self.clamp(b, value) if type_ == F32 else value

    def slot_value(self, b, load):
        """Pool a loaded slot value; a loaded pointer is dereferenced."""
        if isinstance(load.type, PointerType):
            load = b.load(load)
        self.add(load)

    def ops(self, b, count):
        kinds = ("int", "int", "icmp", "float", "fcmp", "cast", "cast",
                 "select", "stack", "slot", "slot", "heap", "call", "extern")
        for _ in range(count):
            getattr(self, "op_" + self.rng.choice(kinds))(b)

    # -- random ops ------------------------------------------------------------------------

    def op_int(self, b):
        type_ = self.rng.choice(INT_TYPES)
        opcode = self.rng.choice(sorted(INT_BINARY_OPS))
        self.add(self.vectorize(b.binary(opcode, self.pick(type_), self.pick(type_))))

    def op_icmp(self, b):
        type_ = self.rng.choice(INT_TYPES)
        predicate = self.rng.choice(sorted(ICMP_PREDICATES))
        self.add(self.vectorize(b.icmp(predicate, self.pick(type_), self.pick(type_))))

    def op_float(self, b):
        type_ = self.rng.choice(FLOAT_TYPES)
        opcode = self.rng.choice(sorted(FP_BINARY_OPS))
        lhs = self.pick(type_)
        if opcode == "frem":            # fmod(inf, x) raises
            lhs = self.clamp(b, lhs)
        self.add(self.vectorize(b.binary(opcode, lhs, self.pick(type_))))

    def op_fcmp(self, b):
        type_ = self.rng.choice(FLOAT_TYPES)
        predicate = self.rng.choice(sorted(FCMP_PREDICATES))
        self.add(self.vectorize(b.fcmp(predicate, self.pick(type_), self.pick(type_))))

    def op_cast(self, b):
        rng = self.rng
        kind = rng.choice(("int", "sitofp", "fptosi", "float", "bitcast", "pointer"))
        if kind == "int":
            opcode = rng.choice(("sext", "zext", "trunc"))
            value = self.pick(rng.choice(INT_TYPES))
            self.add(self.vectorize(b.cast(opcode, value, rng.choice(INT_TYPES))))
        elif kind == "sitofp":
            value = self.pick(rng.choice(INT_TYPES))
            self.add(b.cast("sitofp", value, rng.choice(FLOAT_TYPES)))
        elif kind == "fptosi":
            value = self.clamp(b, self.pick(rng.choice(FLOAT_TYPES)))
            self.add(b.cast("fptosi", value, rng.choice(INT_TYPES)))
        elif kind == "float":
            value = self.pick(rng.choice(FLOAT_TYPES))
            if rng.random() < 0.5:
                self.add(b.cast("fpext", value, F64))
            else:
                self.add(b.cast("fptrunc", self.clamp(b, value), F32))
        elif kind == "bitcast":
            type_ = rng.choice(SCALAR_TYPES)
            self.add(b.cast("bitcast", self.pick(type_), type_))
        else:
            type_ = rng.choice(SCALAR_TYPES)
            address = b.cast("ptrtoint", self.heap[type_], I64)
            pointer = b.cast("inttoptr", address, PointerType(type_))
            self.add(b.load(pointer))

    def op_select(self, b):
        type_ = self.rng.choice(SCALAR_TYPES)
        self.add(self.vectorize(b.select(self.pick(I1), self.pick(type_),
                                         self.pick(type_))))

    def op_stack(self, b):
        rng = self.rng
        type_ = rng.choice(SCALAR_TYPES)
        shape = rng.choice(("slot", "slot", "fresh", "array"))
        if shape == "slot":
            pointer = self.slots[type_]
        elif shape == "fresh":
            pointer = b.alloca(type_)
        else:
            pointer = b.gep(b.alloca(type_, 4), Constant(I64, rng.randrange(4)))
        store = self.vectorize(b.store(self.storable(b, type_), pointer))
        load = self.vectorize(b.load(pointer))
        for access in (store, load):
            if rng.random() < 0.5:
                access.metadata["mperf.reg_promoted"] = True
        self.add(load)

    def op_slot(self, b):
        """Store to or load from an entry-block slot: the value crosses
        blocks, loop iterations and calls."""
        type_ = self.rng.choice(SLOT_TYPES)
        if self.rng.random() < 0.5:
            b.store(self.storable(b, type_), self.slots[type_])
        else:
            self.slot_value(b, self.vectorize(b.load(self.slots[type_])))

    def op_heap(self, b):
        type_ = self.rng.choice(SCALAR_TYPES)
        index = b.binary("and", self.pick(I64), Constant(I64, HEAP_ELEMENTS - 1))
        pointer = b.gep(self.heap[type_], index)
        self.vectorize(b.store(self.storable(b, type_), pointer))
        self.add(self.vectorize(b.load(pointer)))

    def op_call(self, b):
        if self.rng.random() < 0.5:
            self.add(b.call(self.helper, [self.pick(I64), self.pick(F64)]))
        else:
            depth = b.binary("and", self.pick(I64), Constant(I64, 3))
            self.add(b.call(self.recursive, [depth, self.pick(F32)]))

    def op_extern(self, b):
        rng = self.rng
        kind = rng.choice(("math1", "math2", "pure", "observe"))
        if kind == "math1":
            name = rng.choice(("sqrtf", "fabsf", "logf"))
            self.add(b.call(name, [self.pick(F32)], F32))
        elif kind == "math2":
            name = rng.choice(("fminf", "fmaxf"))
            self.add(b.call(name, [self.pick(F32), self.pick(F32)], F32))
        elif kind == "pure":
            self.add(b.call("gen_pure", [self.pick(I64), self.pick(I64)], I64))
        else:
            self.add(b.call("gen_observe", [self.pick(I64)], I64))

    # -- functions ------------------------------------------------------------------------

    def _build_helper(self):
        """``helper(a, x)``: a diamond on ``x < 0`` merged by a phi."""
        function = self.module.create_function(
            "helper", FunctionType(I64, [I64, F64]), ["a", "x"])
        a, x = function.args
        entry, neg, pos, out = (function.add_block(name)
                                for name in ("entry", "neg", "pos", "out"))
        b = IRBuilder(entry)
        saved = b.alloca(F64)
        b.store(x, saved)
        b.br(self.vectorize(b.fcmp("olt", x, Constant(F64, 0.0))), neg, pos)
        b.set_insertion_point(neg)
        negated = b.binary("sub", Constant(I64, 0), a)
        b.jmp(out)
        b.set_insertion_point(pos)
        scaled = self.vectorize(b.binary("mul", a, Constant(I64, 3)))
        b.jmp(out)
        b.set_insertion_point(out)
        result = b.phi(I64)
        result.add_incoming(negated, neg)
        result.add_incoming(scaled, pos)
        clamped = self.clamp(b, b.load(saved))
        b.ret(b.binary("xor", result, b.cast("fptosi", clamped, I64)))
        return function

    def _build_recursive(self):
        """``recursive(n, x)``: frontend-shaped slots live across the call
        to ``recursive(n - 1, x * 1.5)``, one per activation."""
        function = self.module.create_function(
            "recursive", FunctionType(I64, [I64, F32]), ["n", "x"])
        n, x = function.args
        entry, deeper, out = (function.add_block(name)
                              for name in ("entry", "deeper", "out"))
        b = IRBuilder(entry)
        n_slot, x_slot = b.alloca(I64), b.alloca(F32)
        b.store(n, n_slot)
        b.store(self.clamp(b, x), x_slot)
        b.br(b.icmp("sgt", b.load(n_slot), Constant(I64, 0)), deeper, out)
        b.set_insertion_point(deeper)
        scaled = b.binary("fmul", b.load(x_slot), Constant(F32, 1.5))
        below = b.call(function, [b.binary("sub", b.load(n_slot), Constant(I64, 1)),
                                  scaled])
        b.store(b.binary("add", b.load(n_slot), below), n_slot)
        b.store(b.binary("fadd", b.load(x_slot), Constant(F32, 0.1)), x_slot)
        b.jmp(out)
        b.set_insertion_point(out)
        as_int = b.cast("fptosi", self.clamp(b, b.load(x_slot)), I64)
        b.ret(b.binary("mul", b.load(n_slot), as_int))
        return function

    def _build_kernel(self):
        rng = self.rng
        function = self.function
        args = function.args
        blocks = {name: function.add_block(name) for name in (
            "entry", "header", "body", "left", "right", "right2", "merge",
            "spin", "latch", "exit")}
        self.pool = {}
        for arg in args[1:1 + len(SCALAR_TYPES)]:
            self.add(arg)
        self.heap = dict(zip(SCALAR_TYPES, args[1 + len(SCALAR_TYPES):]))
        b = IRBuilder(blocks["entry"])
        self.slots = {t: b.alloca(t) for t in SLOT_TYPES}
        for type_, slot in self.slots.items():
            value = self.storable(b, type_)
            if type_ == F32:            # f32 arithmetic is carried in double
                value = b.binary("fadd", value, Constant(F32, 0.1))
            b.store(value, slot)
        pointer_slot = b.alloca(PointerType(F64))
        b.store(self.heap[F64], pointer_slot)
        self.add(b.load(b.load(pointer_slot)))
        trips = b.binary("add", b.binary("and", args[0], Constant(I64, 7)),
                         Constant(I64, 2))
        swap0 = (self.pick(I32), self.pick(I32))
        b.jmp(blocks["header"])

        # header: induction, accumulators and a swapped pair.
        b.set_insertion_point(blocks["header"])
        i, acc, facc, sa, sb = (b.phi(t) for t in (I64, I64, F64, I32, I32))
        latch = blocks["latch"]
        i.add_incoming(Constant(I64, 0), blocks["entry"])
        acc.add_incoming(Constant(I64, 0), blocks["entry"])
        facc.add_incoming(Constant(F64, 0.0), blocks["entry"])
        sa.add_incoming(swap0[0], blocks["entry"])
        sb.add_incoming(swap0[1], blocks["entry"])
        sa.add_incoming(sb, latch)
        sb.add_incoming(sa, latch)
        for value in (i, acc, facc, sa, sb):
            self.add(value)
        b.br(b.icmp("slt", i, trips), blocks["body"], blocks["exit"])

        # body: an alloca in the loop, loaded before its first store (so it
        # reads what the last call left on the stack) and live across an
        # internal call; random ops; then a three-way diamond into merge.
        b.set_insertion_point(blocks["body"])
        type_ = rng.choice(SLOT_TYPES)
        fresh = b.alloca(type_)
        early = b.load(fresh)
        if not isinstance(type_, PointerType):     # never dereferenced
            self.add(early)
        b.store(self.storable(b, type_), fresh)
        self.op_call(b)
        self.slot_value(b, b.load(fresh))
        self.ops(b, rng.randint(4, 12))
        b.call("gen_observe", [self.pick(I64)], I64)
        b.call("gen_pure", [self.pick(I64), self.pick(I64)], I64)
        b.br(self.pick(I1), blocks["left"], blocks["right"])
        body_pool = {t: list(vs) for t, vs in self.pool.items()}
        incoming = []
        for name, successors in (("left", ("merge",)),
                                 ("right", ("right2", "merge")),
                                 ("right2", ("merge",))):
            if name != "right2":
                self.pool = {t: list(vs) for t, vs in body_pool.items()}
            b.set_insertion_point(blocks[name])
            self.ops(b, rng.randint(0, 4))
            incoming.append((self.pick(I64), self.pick(F64), blocks[name]))
            if len(successors) == 2:
                branch = b.br(self.pick(I1), blocks[successors[0]],
                              blocks[successors[1]])
                self.vectorize(branch)
            else:
                b.jmp(blocks[successors[0]])
        self.pool = body_pool

        b.set_insertion_point(blocks["merge"])
        merged = b.phi(I64), b.phi(F64)
        for int_value, float_value, block in incoming:
            merged[0].add_incoming(int_value, block)
            merged[1].add_incoming(float_value, block)
        for value in merged:
            self.add(value)
        b.jmp(blocks["spin"])

        # spin: a self-loop that also swaps two phis on its back edge.
        b.set_insertion_point(blocks["spin"])
        k, s, t = b.phi(I64), b.phi(I32), b.phi(I32)
        k.add_incoming(Constant(I64, 0), blocks["merge"])
        s.add_incoming(sa, blocks["merge"])
        t.add_incoming(sb, blocks["merge"])
        self.add(s)
        self.add(t)
        k_next = b.binary("add", k, Constant(I64, 1))
        self.ops(b, rng.randint(0, 3))
        k.add_incoming(k_next, blocks["spin"])
        s.add_incoming(t, blocks["spin"])
        t.add_incoming(s, blocks["spin"])
        spin_again = b.icmp("slt", k_next, Constant(I64, rng.randint(1, 4)))
        self.vectorize(b.br(spin_again, blocks["spin"], latch))

        # latch: fold the merged values into the accumulators.
        b.set_insertion_point(latch)
        acc_next = b.binary("add", acc, merged[0])
        acc_next = b.binary("xor", acc_next, b.cast("sext", s, I64))
        facc_next = b.binary("fadd", facc, merged[1])
        i_next = b.binary("add", i, Constant(I64, 1))
        i.add_incoming(i_next, latch)
        acc.add_incoming(acc_next, latch)
        facc.add_incoming(facc_next, latch)
        b.jmp(blocks["header"])

        # exit: publish the accumulators and the float slots in memory
        # (f32 values as stored, unrounded or not) and return.
        b.set_insertion_point(blocks["exit"])
        b.store(facc, self.heap[F64])
        for index, type_ in enumerate(FLOAT_TYPES):
            value = b.load(self.slots[type_])
            value = b.cast("fpext", value, F64) if type_ == F32 else value
            b.store(value, b.gep(self.heap[F64], Constant(I64, 1 + index)))
        b.store(sa, self.heap[I32])
        b.store(sb, b.gep(self.heap[I32], Constant(I64, 1)))
        b.ret(b.binary("add", acc, b.cast("sext", sb, I64)))

    # -- arguments ------------------------------------------------------------------------

    def arguments(self, memory: Memory):
        rng = random.Random(self.rng.random())
        # Arguments may be any Python number: the engine coerces them where
        # an instruction needs an int or a float.
        scalars = [rng.choice(FLOAT_EDGES + (7, -3) if t in FLOAT_TYPES
                              else INT_EDGES + (3.75, -2.5, True))
                   for t in SCALAR_TYPES]
        buffers = [memory.malloc(8 * HEAP_ELEMENTS) for _ in SCALAR_TYPES]
        return [rng.randrange(-64, 64)] + scalars + buffers


def _observe(module, args_of, fast: bool, machine_on: bool):
    """Run ``kernel`` once; everything the two paths must agree on."""
    memory = Memory()
    args = args_of(memory)
    machine = task = fd = ring = None
    if machine_on:
        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        task = machine.create_task("gen")
        attr = PerfEventAttr(
            event=HwEvent.U_MODE_CYCLE, sample_period=53,
            sample_type=frozenset({SampleType.IP, SampleType.TIME,
                                   SampleType.CALLCHAIN, SampleType.READ,
                                   SampleType.PERIOD}),
            read_format=frozenset({ReadFormat.GROUP}),
        )
        fd = machine.perf.perf_event_open(attr, task)
        machine.perf.perf_event_open(PerfEventAttr(event=HwEvent.CYCLES), task,
                                     group_fd=fd)
        ring = machine.perf.mmap(fd)
        machine.perf.enable(fd)
    handler = GenHandler(machine)
    engine = ExecutionEngine(
        module, machine, target_for_platform(machine.descriptor) if machine else None,
        task=task, memory=memory, external_handlers=[handler], fast_dispatch=fast)
    result = engine.run("kernel", args)
    heap_start = args[-len(SCALAR_TYPES)]
    observed = {
        "result": result,
        "heap": memory.read_bytes(heap_start, 8 * HEAP_ELEMENTS * len(SCALAR_TYPES)),
        "stack": memory.read_bytes(Memory.STACK_BASE, STACK_BYTES),
        "stats": engine.stats,
        "clocks": handler.clocks,
    }
    if machine is not None:
        machine.perf.disable(fd)
        read = machine.perf.read(fd)
        observed.update(
            read=(read.value, read.time_enabled, read.time_running, read.group),
            totals=machine.event_totals(),
            cycles=machine.cycles,
            instructions=machine.instructions,
            samples=[replace(s, pid=0, tid=0) for s in ring.drain()],
        )
    return observed


def check_seed(seed: int) -> None:
    generator = KernelGenerator(seed)
    arguments_seed = generator.rng.random()

    def args_of(memory):
        generator.rng = random.Random(arguments_seed)
        return generator.arguments(memory)

    for machine_on in (False, True):
        fast = _observe(generator.module, args_of, True, machine_on)
        reference = _observe(generator.module, args_of, False, machine_on)
        assert fast.keys() == reference.keys()
        for key in fast:
            assert fast[key] == reference[key], (seed, machine_on, key)
        if machine_on:
            assert fast["clocks"] and fast["stats"].external_calls


@pytest.mark.parametrize("seed", range(16))
def test_generated_code_matches_reference(seed):
    check_seed(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(200))
def test_generated_code_matches_reference_sweep(seed):
    check_seed(seed)


# -- operator tables: every operator on every edge operand ---------------------------------

CAST_PAIRS = (
    [(opcode, src, dst) for opcode in ("sext", "zext", "trunc")
     for src in INT_TYPES for dst in INT_TYPES]
    + [("sitofp", src, dst) for src in INT_TYPES for dst in FLOAT_TYPES]
    + [("fptosi", src, dst) for src in FLOAT_TYPES for dst in INT_TYPES]
    + [(opcode, src, dst) for opcode in ("fpext", "fptrunc")
       for src in FLOAT_TYPES for dst in FLOAT_TYPES]
    + [("bitcast", t, t) for t in SCALAR_TYPES]
)


def _operator_module():
    """One tiny function per (operator, type); binary ones also with each
    edge constant as the right operand, the shape constant folding sees."""
    module = Module("ops")
    functions = []

    def define(name, params, result_type, emit):
        function = module.create_function(name, FunctionType(result_type, params),
                                          [f"x{i}" for i in range(len(params))])
        b = IRBuilder(function.add_block("entry"))
        b.ret(emit(b, *function.args))
        functions.append((name, len(params), params[0]))

    for type_ in SCALAR_TYPES:
        edges = INT_EDGES if type_ in INT_TYPES else FLOAT_EDGES
        ops = ([("binary", opcode) for opcode in sorted(INT_BINARY_OPS)]
               + [("icmp", p) for p in sorted(ICMP_PREDICATES)]
               if type_ in INT_TYPES else
               [("binary", opcode) for opcode in sorted(FP_BINARY_OPS)]
               + [("fcmp", p) for p in sorted(FCMP_PREDICATES)])
        for kind, op in ops:
            emit = (lambda b, x, y, kind=kind, op=op:
                    b.binary(op, x, y) if kind == "binary" else
                    getattr(b, kind)(op, x, y))
            result_type = type_ if kind == "binary" else I1
            define(f"{op}_{type_}", [type_, type_], result_type, emit)
            for index, edge in enumerate(edges):
                define(f"{op}_{type_}_c{index}", [type_], result_type,
                       lambda b, x, emit=emit, c=Constant(type_, edge): emit(b, x, c))
    for opcode, src, dst in CAST_PAIRS:
        define(f"{opcode}_{src}_{dst}", [src], dst,
               lambda b, x, opcode=opcode, dst=dst: b.cast(opcode, x, dst))
    return module, functions


def _outcome(engine, name, args):
    try:
        value = engine.run(name, args)
    except (ValueError, OverflowError) as error:
        return type(error).__name__, str(error)
    return type(value).__name__, repr(value)


def test_every_operator_on_edge_operands():
    module, functions = _operator_module()
    fast = ExecutionEngine(module, fast_dispatch=True)
    reference = ExecutionEngine(module, fast_dispatch=False)
    for name, arity, type_ in functions:
        edges = (FLOAT_EDGES + (7,) if type_ in FLOAT_TYPES
                 else INT_EDGES + (3.75,))
        operands = ([(x,) for x in edges] if arity == 1
                    else [(x, y) for x in edges for y in edges])
        for args in operands:
            assert _outcome(fast, name, args) == _outcome(reference, name, args), \
                (name, args)


# -- errors and edge cases, pinned on both paths ---------------------------------------------

PATHS = pytest.mark.parametrize("fast", [True, False], ids=["generated", "reference"])


def _function(*blocks, params=(I64, PointerType(I64))):
    module = Module("m")
    function = module.create_function("f", FunctionType(I64, list(params)),
                                      ["a", "p"][:len(params)])
    return module, function, [function.add_block(name) for name in blocks]


def _run_expecting(module, message, fast):
    memory = Memory()
    buffer = memory.malloc(8)
    engine = ExecutionEngine(module, memory=memory, fast_dispatch=fast)
    with pytest.raises(RuntimeError, match=message):
        engine.run("f", [41, buffer])
    # The store before the failing instruction ran on both paths.
    assert memory.read_int_array(buffer, 1) == [41]


class _Frobnicate(Instruction):
    opcode = "frobnicate"

    def __init__(self):
        super().__init__(I64, [])


@PATHS
def test_use_before_definition(fast):
    module, function, (entry, late, early) = _function("entry", "late", "early")
    a, p = function.args
    b = IRBuilder(entry)
    b.br(b.icmp("slt", a, Constant(I64, 0)), late, early)
    b.set_insertion_point(late)
    value = b.binary("add", a, Constant(I64, 1), name="v")
    b.jmp(early)
    b.set_insertion_point(early)
    b.store(a, p)
    b.ret(b.binary("add", value, Constant(I64, 1)))
    _run_expecting(module, r"value %v used before definition in @f", fast)


@PATHS
def test_fell_through(fast):
    module, function, (entry,) = _function("entry")
    a, p = function.args
    b = IRBuilder(entry)
    b.store(a, p)
    b.binary("add", a, Constant(I64, 1))
    _run_expecting(module, r"block entry in @f fell through without a terminator", fast)


@PATHS
def test_unexecutable_opcode(fast):
    module, function, (entry,) = _function("entry")
    a, p = function.args
    b = IRBuilder(entry)
    b.store(a, p)
    entry.append(_Frobnicate())
    b.ret(a)
    _run_expecting(module, r"cannot execute instruction frobnicate", fast)


@PATHS
def test_phi_from_unknown_predecessor_is_none(fast):
    module, function, (entry, mid, join) = _function("entry", "mid", "join",
                                                     params=(I64,))
    (a,) = function.args
    b = IRBuilder(entry)
    b.br(b.icmp("slt", a, Constant(I64, 0)), mid, join)
    b.set_insertion_point(mid)
    b.jmp(join)
    b.set_insertion_point(join)
    phi = b.phi(I64)
    phi.add_incoming(a, mid)         # no incoming for the entry edge
    b.ret(phi)
    engine = ExecutionEngine(module, fast_dispatch=fast)
    assert engine.run("f", [-5]) == -5
    assert engine.run("f", [5]) is None


@PATHS
def test_entry_block_phi_is_none_on_entry(fast):
    module, function, (entry, again) = _function("entry", "again", params=(I64,))
    (a,) = function.args
    b = IRBuilder(entry)
    phi = b.phi(I64)
    phi.add_incoming(a, again)
    b.br(b.icmp("slt", a, Constant(I64, 0)), again, again)
    b.set_insertion_point(again)
    b.ret(phi)
    assert ExecutionEngine(module, fast_dispatch=fast).run("f", [3]) is None


@pytest.mark.parametrize("type_, value, error", [
    (F32, 1e300, OverflowError), (PointerType(I64), 2**64, struct.error)],
    ids=["f32-overflow", "pointer-outside-i64"])
def test_slot_store_out_of_range_raises_alike(type_, value, error):
    """A store to a scalar slot the generated code keeps in a local still
    raises what ``pack_into`` raises on the reference path."""
    module = Module("m")
    function = module.create_function("f", FunctionType(I64, [type_]), ["x"])
    b = IRBuilder(function.add_block("entry"))
    slot = b.alloca(type_)
    b.store(function.args[0], slot)
    b.load(slot)
    b.ret(Constant(I64, 0))
    raised = []
    for fast in (True, False):
        with pytest.raises(error) as caught:
            ExecutionEngine(module, fast_dispatch=fast).run("f", [value])
        raised.append(str(caught.value))
    assert raised[0] == raised[1]


# -- the compiled-code memo ----------------------------------------------------------------


def _seeded(seed: int):
    generator = KernelGenerator(seed)
    arguments_seed = generator.rng.random()

    def args_of(memory):
        generator.rng = random.Random(arguments_seed)
        return generator.arguments(memory)
    return generator.module, args_of


def test_engines_over_one_module_share_compiled_code():
    """Each generated source is compiled once per process: later engines
    over the module reuse its code object and observe what a cold one does."""
    module, args_of = _seeded(5)
    _compiled.cache_clear()
    cold = _observe(module, args_of, True, True)
    compiled = _compiled.cache_info().misses
    for _ in range(2):
        assert _observe(module, args_of, True, True) == cold
    assert _compiled.cache_info().misses == compiled
    engines = [ExecutionEngine(module, external_handlers=[GenHandler(None)])
               for _ in range(2)]
    for engine in engines:
        engine.run("kernel", args_of(engine.memory))
    codes = [{function: run.__code__ for function, (run, _) in engine._generated.items()}
             for engine in engines]
    assert codes[0] and codes[0].keys() == codes[1].keys()
    assert all(codes[0][function] is codes[1][function] for function in codes[0])
    assert engines[0].stats == engines[1].stats


def test_use_before_definition_is_reported_from_memoised_code():
    module, function, (entry, late, early) = _function("entry", "late", "early")
    a, p = function.args
    b = IRBuilder(entry)
    b.br(b.icmp("slt", a, Constant(I64, 0)), late, early)
    b.set_insertion_point(late)
    value = b.binary("add", a, Constant(I64, 1), name="v")
    b.jmp(early)
    b.set_insertion_point(early)
    b.store(a, p)
    b.ret(b.binary("add", value, Constant(I64, 1)))
    _run_expecting(module, r"value %v used before definition in @f", True)
    hits = _compiled.cache_info().hits
    _run_expecting(module, r"value %v used before definition in @f", True)
    assert _compiled.cache_info().hits == hits + 1


def test_compiled_code_memo_is_bounded():
    bound = _compiled.cache_info().maxsize
    assert bound == 256
    for index in range(bound + 8):
        _compiled(f"x = {index}", "<memo bound>")
    assert _compiled.cache_info().currsize == bound


# -- memory accounting: site ops, addresses in the access list ----------------------------


def test_generated_code_builds_no_machine_op(monkeypatch):
    """A load or store retires its lowering's address-free template, bound
    to the factory as a constant, and appends its access: no generated
    source builds a ``MachineOp`` per access, and no factory takes the
    class."""
    import repro.vm.engine as engine_module
    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    sources = []

    def capture(source, filename):
        sources.append(source)
        return _compiled(source, filename)

    monkeypatch.setattr(engine_module, "_compiled", capture)
    for seed in range(4):
        _observe(*_seeded(seed), True, True)
    Session("SpacemiT X60").run(registry.create("matmul-tiled", n=4),
                                ProfileSpec().counting())
    assert any("matmul_tiled" in source for source in sources)
    assert any("pending_mem_append((" in source for source in sources)
    assert not [source for source in sources if "MachineOp(" in source]
    assert all(source.startswith("def factory(")
               and "MachineOp" not in source.split("\n", 1)[0]
               for source in sources)
    assert "MachineOp" not in engine_module._FIXED_PARAMS


class _TwoOpLoads(TargetLowering):
    """Lowers a load to an address computation plus the access."""

    def _lower_memory(self, size_bytes, is_store, address, pc, vector_width):
        ops = super()._lower_memory(size_bytes, is_store, address, pc, vector_width)
        return ops if is_store else [MachineOp(OpClass.INT_ALU, pc=pc)] + ops


def test_memory_lowering_of_several_ops_is_rejected_at_predecode():
    """Generated code retires one template op per access, so a target whose
    memory lowering yields more is refused before anything runs; the
    reference interpreter, which lowers per execution, still runs it."""
    module, function, (entry,) = _function("entry")
    a, p = function.args
    b = IRBuilder(entry)
    b.store(a, p)
    b.ret(b.load(p))
    for fast in (True, False):
        memory = Memory()
        buffer = memory.malloc(8)
        machine = Machine(spacemit_x60())
        engine = ExecutionEngine(module, machine, _TwoOpLoads(), memory=memory,
                                 fast_dispatch=fast)
        if fast:
            with pytest.raises(ValueError, match=r"_TwoOpLoads\(march='generic'\) "
                               r"lowers a load to INT_ALU, LOAD: a target's memory "
                               r"lowering yields at most one op"):
                engine.run("f", [41, buffer])
            assert machine.instructions == 0
        else:
            assert engine.run("f", [41, buffer]) == 41
            assert machine.instructions > 0
