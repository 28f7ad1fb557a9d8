"""Synthetic call-tree workloads and their trace executor.

The paper profiles sqlite3 from the LLVM test suite -- billions of dynamic
instructions through a deep call tree.  Interpreting that much real code is
out of reach for a Python substrate, so hotspot/flame-graph experiments use
*synthetic workloads*: a call tree whose functions have configurable
instruction mixes, working-set sizes and relative weights.  The
:class:`TraceExecutor` walks the tree and drives the very same machine model
(caches, branch predictor, PMU, sampling interrupts) the compiled kernels
use, pushing and popping real task stack frames so perf samples carry real
call chains.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.machine_ops import MachineOp, OpClass
from repro.kernel.task import Task
from repro.platforms.machine import Machine


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of each operation class in a function's body.

    The fractions need not sum to one; they are normalised.  Loads/stores get
    addresses generated over a working set of ``working_set_bytes`` with a
    mix of sequential and pseudo-random accesses (``locality`` = fraction of
    sequential accesses), which is what determines cache behaviour.
    """

    int_alu: float = 0.45
    int_mul: float = 0.02
    loads: float = 0.25
    stores: float = 0.08
    branches: float = 0.15
    fp: float = 0.0
    calls: float = 0.0
    working_set_bytes: int = 64 * 1024
    locality: float = 0.7
    branch_taken_fraction: float = 0.6
    branch_predictability: float = 0.9

    def normalised(self) -> List[Tuple[str, float]]:
        entries = [
            ("int_alu", self.int_alu), ("int_mul", self.int_mul),
            ("loads", self.loads), ("stores", self.stores),
            ("branches", self.branches), ("fp", self.fp),
        ]
        total = sum(weight for _, weight in entries) or 1.0
        return [(name, weight / total) for name, weight in entries]


@dataclass
class SyntheticFunction:
    """One function in the synthetic call tree."""

    name: str
    #: Units of work done per invocation (each unit is one machine op).
    ops_per_call: int
    mix: InstructionMix = field(default_factory=InstructionMix)
    #: Child calls per invocation: (callee name, how many calls).
    callees: List[Tuple[str, int]] = field(default_factory=list)


@dataclass
class SyntheticWorkload:
    """A named call tree with an entry point."""

    name: str
    entry: str
    functions: Dict[str, SyntheticFunction] = field(default_factory=dict)
    #: Multiplier applied to ops_per_call, used to model ISAs that need more
    #: instructions for the same work (the paper's x86 build of sqlite3
    #: retires ~1.8x more instructions than the RISC-V build).
    instruction_factor: float = 1.0

    def add(self, function: SyntheticFunction) -> SyntheticFunction:
        self.functions[function.name] = function
        return self

    def function(self, name: str) -> SyntheticFunction:
        return self.functions[name]

    def scaled(self, factor: float) -> "SyntheticWorkload":
        clone = SyntheticWorkload(self.name, self.entry,
                                  dict(self.functions), factor)
        return clone


#: Instruction-mix entry -> the op class it emits ("branches" is built apart).
_MIX_OPCLASS = {"int_alu": OpClass.INT_ALU, "int_mul": OpClass.INT_MUL,
                "loads": OpClass.LOAD, "stores": OpClass.STORE,
                "fp": OpClass.FP_MUL}


class TraceExecutor:
    """Executes a synthetic workload on a machine model.

    A function body retires in segments split at child calls, so all ops of
    a segment share one call chain: one ``Machine.execute_batch`` call each,
    or op by op through ``Machine.execute`` without ``batched`` (the per-op
    reference).  The op stream depends only on the seed either way.
    """

    def __init__(self, machine: Machine, task: Task, seed: int = 42,
                 instruction_factor: Optional[float] = None,
                 address_offset: int = 0, batched: bool = True):
        self.machine = machine
        self.task = task
        self.random = random.Random(seed)
        self.instruction_factor = instruction_factor
        self.batched = batched
        self._base_addresses: Dict[str, int] = {}
        # Parallel workloads give every software thread its own offset so
        # per-thread working sets occupy disjoint address ranges (threads of
        # one process share an address space but not their heaps); a zero
        # offset keeps single-thread traces byte-identical to before.
        self._next_base = 0x2000_0000 + address_offset
        self._sequential_cursor: Dict[str, int] = {}

    # -- address generation -------------------------------------------------------------

    def _address_for(self, function: SyntheticFunction) -> int:
        base = self._base_addresses.get(function.name)
        if base is None:
            base = self._next_base
            self._base_addresses[function.name] = base
            self._next_base += max(function.mix.working_set_bytes, 4096) * 2
            self._sequential_cursor[function.name] = 0
        working_set = max(64, function.mix.working_set_bytes)
        if self.random.random() < function.mix.locality:
            cursor = self._sequential_cursor[function.name]
            self._sequential_cursor[function.name] = (cursor + 8) % working_set
            return base + cursor
        return base + (self.random.randrange(working_set) & ~0x7)

    # -- execution -------------------------------------------------------------------------

    def run(self, workload: SyntheticWorkload, invocations: int = 1) -> None:
        factor = (
            self.instruction_factor
            if self.instruction_factor is not None
            else workload.instruction_factor
        )
        for _ in range(invocations):
            self._run_function(workload, workload.function(workload.entry), factor)

    def _retire(self, segment: List[MachineOp]) -> None:
        """Retire and clear one segment (all ops under one call chain)."""
        if self.batched:
            self.machine.execute_batch(segment, self.task)
        else:
            for op in segment:
                self.machine.execute(op, self.task)
        segment.clear()

    def _run_function(self, workload: SyntheticWorkload,
                      function: SyntheticFunction, factor: float) -> None:
        task = self.task
        task.push_frame(function.name)
        # Slot s of the body is at pc_base + (s % 64) * 4.  crc32, not
        # hash(): str hashing is randomised per process (PYTHONHASHSEED), and
        # synthetic pcs must be reproducible across processes for the
        # golden-file CLI tests (and any cross-run diff).
        pc_base = ((zlib.crc32(function.name.encode("utf-8")) & 0xFFFF) * 0x100
                   + 0x0100_0000)
        segment = [MachineOp(OpClass.CALL, taken=True, pc=pc_base)]
        try:
            ops = max(1, int(function.ops_per_call * factor))
            kinds, weights = zip(*function.mix.normalised())
            bounds = list(accumulate(weights))
            # Interleave child calls evenly through the body; calls
            # scheduled past the body length happen after it.
            calls = [name for name, count in function.callees
                     for _ in range(count)]
            stride = max(1, ops // (len(calls) + 1))
            slot = 0
            for position, callee_name in enumerate(calls, 1):
                end = min(position * stride, ops)
                segment.extend(self._make_op(function, kinds, bounds,
                                             body_slot, pc_base)
                               for body_slot in range(slot, end))
                slot = end
                self._retire(segment)
                self._run_function(workload, workload.function(callee_name),
                                   factor)
            segment.extend(self._make_op(function, kinds, bounds, body_slot,
                                         pc_base)
                           for body_slot in range(slot, ops))
        finally:
            segment.append(MachineOp(OpClass.RET, taken=True, pc=pc_base + 4))
            self._retire(segment)
            task.pop_frame()

    def _make_op(self, function: SyntheticFunction, kinds: Sequence[str],
                 bounds: Sequence[float], slot: int, pc_base: int) -> MachineOp:
        # The first kind whose cumulative weight reaches the draw (the last
        # kind if rounding leaves the draw above every bound).
        index = bisect_left(bounds, self.random.random())
        kind = kinds[min(index, len(kinds) - 1)]
        pc = pc_base + (slot % 64) * 4
        opclass = _MIX_OPCLASS.get(kind)
        if opclass is OpClass.LOAD or opclass is OpClass.STORE:
            return MachineOp(opclass, size_bytes=8,
                             address=self._address_for(function), pc=pc)
        if opclass is not None:
            return MachineOp(opclass, pc=pc)
        mix = function.mix
        predictable = self.random.random() < mix.branch_predictability
        taken = ((slot % 8) != 0 if predictable
                 else self.random.random() < mix.branch_taken_fraction)
        return MachineOp(OpClass.BRANCH, taken=taken, target=pc + 16, pc=pc)
