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

import math
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.isa.machine_ops import MachineOp, OpClass, with_addresses
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


#: Instruction-mix entry -> the op class it emits ("branches" is built apart).
_MIX_OPCLASS = {"int_alu": OpClass.INT_ALU, "int_mul": OpClass.INT_MUL,
                "loads": OpClass.LOAD, "stores": OpClass.STORE,
                "fp": OpClass.FP_MUL}

#: How :meth:`TraceExecutor._fill` emits a kind: an interned op per slot, an
#: interned ``(not taken, taken)`` pair per slot, or an interned load/store
#: site per slot plus its access, from a ``(sites, is_store)`` row.
_PLAIN, _BRANCH, _MEMORY = 0, 1, 2


class _OpTable:
    """The ops of one function that do not depend on the random stream.

    Body slot *s* sits at ``pc_base + (s % 64) * 4``, so every op is one of
    64 values per kind (loads and stores are address-free sites) and every
    branch one of 64 pairs.  The ops are immutable, so one instance serves
    every segment that retires it.
    """

    __slots__ = ("mix", "bounds", "codes", "rows", "working_set", "call",
                 "ret")

    def __init__(self, function: SyntheticFunction):
        mix = function.mix
        # crc32, not hash(): str hashing is randomised per process
        # (PYTHONHASHSEED), and synthetic pcs must be reproducible across
        # processes for the golden-file CLI tests (and any cross-run diff).
        pc_base = ((zlib.crc32(function.name.encode("utf-8")) & 0xFFFF) * 0x100
                   + 0x0100_0000)
        kinds, weights = zip(*mix.normalised())
        bounds = list(accumulate(weights))
        # A kind is the first whose cumulative weight reaches the draw, and
        # the last kind if rounding leaves the draw above every bound.  An
        # infinite last bound gives that index without a clamp: bisection
        # reads the last bound only once the answer is the last index or
        # past the end, which the clamp mapped to the last index too.
        bounds[-1] = math.inf
        pcs = [pc_base + slot * 4 for slot in range(64)]
        codes: List[int] = []
        rows: List[object] = []
        for kind in kinds:
            opclass = _MIX_OPCLASS.get(kind)
            if opclass is OpClass.LOAD or opclass is OpClass.STORE:
                codes.append(_MEMORY)
                rows.append((tuple(MachineOp(opclass, 8, pc=pc) for pc in pcs),
                             opclass is OpClass.STORE))
            elif opclass is not None:
                codes.append(_PLAIN)
                rows.append(tuple(MachineOp(opclass, pc=pc) for pc in pcs))
            else:
                codes.append(_BRANCH)
                rows.append(tuple(
                    (MachineOp(OpClass.BRANCH, taken=False, target=pc + 16,
                               pc=pc),
                     MachineOp(OpClass.BRANCH, taken=True, target=pc + 16,
                               pc=pc))
                    for pc in pcs))
        self.mix = mix
        self.bounds = bounds
        self.codes = codes
        self.rows = rows
        self.working_set = max(64, mix.working_set_bytes)
        self.call = MachineOp(OpClass.CALL, taken=True, pc=pc_base)
        self.ret = MachineOp(OpClass.RET, taken=True, pc=pc_base + 4)


class TraceExecutor:
    """Executes a synthetic workload on a machine model.

    A function body retires in segments split at child calls, so all ops of
    a segment share one call chain: one ``Machine.execute_batch`` call each,
    with the segment's ``(address, size_bytes, is_store)`` accesses collected
    alongside so the machine resolves them in one ``access_lines`` call, or
    op by op through ``Machine.execute`` after ``with_addresses`` without
    ``batched`` (the per-op reference).  The op stream depends only on the
    seed either way.

    Generation costs about as much as its random draws.  The first run of a
    function builds its :class:`_OpTable`, kept for the executor's lifetime
    and keyed by function name (rebuilt if a later tree gives the name
    another mix), and :meth:`_fill` appends interned table ops and builds
    no :class:`MachineOp`.  Each body slot draws its kind; a load or store
    then draws whether it is sequential and, if not, a random offset in the
    working set; a branch draws whether it is predictable and, if not,
    whether it is taken.  A function's heap base is allocated at its first
    load or store, in trace order.
    """

    def __init__(self, machine: Machine, task: Task, seed: int = 42,
                 instruction_factor: Optional[float] = None,
                 address_offset: int = 0, batched: bool = True):
        self.machine = machine
        self.task = task
        self.random = random.Random(seed)
        self.instruction_factor = instruction_factor
        self.batched = batched
        self._tables: Dict[str, _OpTable] = {}
        self._base_addresses: Dict[str, int] = {}
        # Parallel workloads give every software thread its own offset so
        # per-thread working sets occupy disjoint address ranges (threads of
        # one process share an address space but not their heaps); a zero
        # offset keeps single-thread traces byte-identical to before.
        self._next_base = 0x2000_0000 + address_offset
        self._sequential_cursor: Dict[str, int] = {}

    # -- address generation -------------------------------------------------------------

    def _allocate_base(self, function: SyntheticFunction) -> int:
        base = self._next_base
        self._base_addresses[function.name] = base
        self._next_base += max(function.mix.working_set_bytes, 4096) * 2
        return base

    # -- execution -------------------------------------------------------------------------

    def run(self, workload: SyntheticWorkload, invocations: int = 1) -> None:
        factor = (
            self.instruction_factor
            if self.instruction_factor is not None
            else workload.instruction_factor
        )
        for _ in range(invocations):
            self._run_function(workload, workload.function(workload.entry), factor)

    def _retire(self, segment: List[MachineOp], accesses: List[tuple]) -> None:
        """Retire and clear one segment (all ops under one call chain) and
        its memory accesses."""
        if self.batched:
            self.machine.execute_batch(segment, self.task, accesses)
        else:
            for op in with_addresses(segment, accesses):
                self.machine.execute(op, self.task)
        segment.clear()
        accesses.clear()

    def _run_function(self, workload: SyntheticWorkload,
                      function: SyntheticFunction, factor: float) -> None:
        task = self.task
        task.push_frame(function.name)
        table = self._tables.get(function.name)
        if table is None or table.mix is not function.mix:
            table = self._tables[function.name] = _OpTable(function)
        segment = [table.call]
        accesses: List[tuple] = []
        try:
            ops = max(1, int(function.ops_per_call * factor))
            # Interleave child calls evenly through the body; calls
            # scheduled past the body length happen after it.
            calls = [name for name, count in function.callees
                     for _ in range(count)]
            stride = max(1, ops // (len(calls) + 1))
            slot = 0
            for position, callee_name in enumerate(calls, 1):
                end = min(position * stride, ops)
                self._fill(segment, accesses, function, table, slot, end)
                slot = end
                self._retire(segment, accesses)
                self._run_function(workload, workload.function(callee_name),
                                   factor)
            self._fill(segment, accesses, function, table, slot, ops)
        finally:
            segment.append(table.ret)
            self._retire(segment, accesses)
            task.pop_frame()

    def _fill(self, segment: List[MachineOp], accesses: List[tuple],
              function: SyntheticFunction, table: _OpTable, start: int,
              end: int) -> None:
        """Append body slots ``start..end-1`` of *function* to *segment*,
        and each load's and store's access to *accesses*."""
        draw = self.random.random
        randrange = self.random.randrange
        append = segment.append
        access = accesses.append
        bounds, codes, rows = table.bounds, table.codes, table.rows
        working_set = table.working_set
        mix = function.mix
        locality = mix.locality
        predictability = mix.branch_predictability
        taken_fraction = mix.branch_taken_fraction
        name = function.name
        base = self._base_addresses.get(name)   # None before the first access
        cursor = self._sequential_cursor.get(name, 0)
        for slot in range(start, end):
            index = bisect_left(bounds, draw())
            code = codes[index]
            if code == _PLAIN:
                append(rows[index][slot & 63])
            elif code == _MEMORY:
                if base is None:
                    base = self._allocate_base(function)
                if draw() < locality:
                    address = base + cursor
                    cursor = (cursor + 8) % working_set
                else:
                    address = base + (randrange(working_set) & ~0x7)
                sites, is_store = rows[index]
                append(sites[slot & 63])
                access((address, 8, is_store))
            else:
                pair = rows[index][slot & 63]
                if draw() < predictability:
                    append(pair[(slot & 7) != 0])
                else:
                    append(pair[draw() < taken_fraction])
        if base is not None:
            self._sequential_cursor[name] = cursor
