"""Synthetic trace generation: op stream and committed sqlite digests.

:class:`~repro.workloads.synthetic.TraceExecutor` builds each function's
non-memory ops once into a table and appends them from one fill loop per
segment.  ``ReferenceTraceExecutor`` below is the straightforward generator
it replaced: one validated :class:`MachineOp` per draw, addresses from
``_address_for``.  Both must produce the same stream, op for op and segment
for segment, because every digest and golden depends on the draw order and
on the order in which functions receive their heap bases.

The second half runs the ``sqlite-record-x60`` benchmark workload through a
full ``Session`` and compares its output digest with the committed
``perfbench/expected_digests.json`` (read-only): seeds 42 and 7 in the fast
lane, every committed seed under ``slow``.
"""

import importlib.util
import os
import random
import sys
import zlib
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Sequence

import pytest

from repro.isa.machine_ops import MachineOp, OpClass
from repro.workloads.synthetic import (
    InstructionMix,
    SyntheticFunction,
    SyntheticWorkload,
    TraceExecutor,
)
from test_horizon_batching import random_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MIX_OPCLASS = {"int_alu": OpClass.INT_ALU, "int_mul": OpClass.INT_MUL,
                "loads": OpClass.LOAD, "stores": OpClass.STORE,
                "fp": OpClass.FP_MUL}


class ReferenceTraceExecutor:
    """The per-draw generator: one ``MachineOp`` built per op."""

    def __init__(self, machine, task, seed: int = 42,
                 instruction_factor=None, address_offset: int = 0,
                 batched: bool = True):
        self.machine = machine
        self.task = task
        self.random = random.Random(seed)
        self.instruction_factor = instruction_factor
        self.batched = batched
        self._base_addresses: Dict[str, int] = {}
        self._next_base = 0x2000_0000 + address_offset
        self._sequential_cursor: Dict[str, int] = {}

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

    def run(self, workload: SyntheticWorkload, invocations: int = 1) -> None:
        factor = (self.instruction_factor
                  if self.instruction_factor is not None
                  else workload.instruction_factor)
        for _ in range(invocations):
            self._run_function(workload, workload.function(workload.entry),
                               factor)

    def _retire(self, segment: List[MachineOp]) -> None:
        if self.batched:
            self.machine.execute_batch(segment, self.task)
        else:
            for op in segment:
                self.machine.execute(op, self.task)
        segment.clear()

    def _run_function(self, workload, function, factor) -> None:
        self.task.push_frame(function.name)
        pc_base = ((zlib.crc32(function.name.encode("utf-8")) & 0xFFFF)
                   * 0x100 + 0x0100_0000)
        segment = [MachineOp(OpClass.CALL, taken=True, pc=pc_base)]
        try:
            ops = max(1, int(function.ops_per_call * factor))
            kinds, weights = zip(*function.mix.normalised())
            bounds = list(accumulate(weights))
            calls = [name for name, count in function.callees
                     for _ in range(count)]
            stride = max(1, ops // (len(calls) + 1))
            slot = 0
            for position, callee_name in enumerate(calls, 1):
                end = min(position * stride, ops)
                segment.extend(self._make_op(function, kinds, bounds, s,
                                             pc_base)
                               for s in range(slot, end))
                slot = end
                self._retire(segment)
                self._run_function(workload, workload.function(callee_name),
                                   factor)
            segment.extend(self._make_op(function, kinds, bounds, s, pc_base)
                           for s in range(slot, ops))
        finally:
            segment.append(MachineOp(OpClass.RET, taken=True, pc=pc_base + 4))
            self._retire(segment)
            self.task.pop_frame()

    def _make_op(self, function, kinds: Sequence[str],
                 bounds: Sequence[float], slot: int,
                 pc_base: int) -> MachineOp:
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


class RecordingMachine:
    """Records every retired op, field by field, one list per segment, and
    each batch's ``mem_accesses`` in :attr:`accesses` (one list per batch)."""

    def __init__(self):
        self.segments: List[list] = []
        self.accesses: List[list] = []

    @staticmethod
    def _fields(op: MachineOp) -> tuple:
        return (op.opclass, op.size_bytes, op.address, op.lanes, op.taken,
                op.target, op.pc)

    def execute_batch(self, ops, task=None, mem_accesses=()) -> None:
        self.segments.append([self._fields(op) for op in ops])
        self.accesses.append(list(mem_accesses))

    def execute(self, op, task=None) -> None:
        self.segments.append([self._fields(op)])


class FrameStack:
    def __init__(self):
        self.frames: List[str] = []

    def push_frame(self, name: str) -> None:
        self.frames.append(name)

    def pop_frame(self) -> None:
        self.frames.pop()


def record(executor_cls, trees, seed: int, invocations: int = 2,
           **options) -> List[list]:
    machine = RecordingMachine()
    executor = executor_cls(machine, FrameStack(), seed=seed, **options)
    for tree in trees:
        executor.run(tree, invocations=invocations)
    return machine.segments


def assert_same_stream(trees, seed: int = 5, **options) -> List[list]:
    reference = record(ReferenceTraceExecutor, trees, seed, **options)
    assert record(TraceExecutor, trees, seed, **options) == reference
    return reference


def tree(entry: str, *functions: SyntheticFunction) -> SyntheticWorkload:
    workload = SyntheticWorkload(f"edge-{entry}", entry)
    for function in functions:
        workload.add(function)
    return workload


MEMORY_FREE = InstructionMix(int_alu=0.6, int_mul=0.1, loads=0.0, stores=0.0,
                             branches=0.3)
MEMORY = InstructionMix(int_alu=0.3, loads=0.4, stores=0.2, branches=0.1,
                        working_set_bytes=4096, locality=0.6)


def memory_ops(segments, opclass=None) -> List[tuple]:
    return [op for segment in segments for op in segment
            if op[0] in (OpClass.LOAD, OpClass.STORE)
            and opclass in (None, op[0])]


@pytest.mark.parametrize("seed", range(24))
def test_random_trees_match_reference(seed):
    assert_same_stream([random_tree(seed)], seed=seed)


@pytest.mark.parametrize("seed", range(6))
def test_batches_carry_their_memory_accesses(seed):
    """Every batch hands the machine its loads' and stores' ``(address,
    size_bytes, is_store)``, in op order, for one ``access_lines`` call."""
    machine = RecordingMachine()
    executor = TraceExecutor(machine, FrameStack(), seed=seed)
    executor.run(random_tree(seed), invocations=2)
    executor.run(tree("f", SyntheticFunction("f", 300, MEMORY)))
    assert len(machine.accesses) == len(machine.segments)
    for segment, accesses in zip(machine.segments, machine.accesses):
        assert accesses == [(address, size, opclass is OpClass.STORE)
                            for opclass, size, address, *_ in segment
                            if opclass in (OpClass.LOAD, OpClass.STORE)]
    flags = {is_store for batch in machine.accesses for *_, is_store in batch}
    assert flags == {False, True}


def test_per_op_path_matches_reference():
    assert_same_stream([random_tree(3)], seed=3, batched=False)


def test_heap_bases_follow_first_memory_op():
    """A memory-free entry calls a memory-free function, then a memory-using
    leaf: the leaf gets the first heap base, because bases are allocated at
    a function's first load or store, not at its first segment."""
    workload = tree(
        "main",
        SyntheticFunction("main", 120, MEMORY_FREE, [("pure", 1), ("leaf", 1)]),
        SyntheticFunction("pure", 80, MEMORY_FREE),
        SyntheticFunction("leaf", 200, MEMORY),
    )
    segments = assert_same_stream([workload])
    addresses = [op[2] for op in memory_ops(segments)]
    assert addresses and min(addresses) == 0x2000_0000


def test_tiny_working_set():
    mix = InstructionMix(loads=0.5, stores=0.2, int_alu=0.3, branches=0.0,
                         working_set_bytes=16, locality=0.5)
    segments = assert_same_stream([tree("f", SyntheticFunction("f", 300, mix))])
    assert {op[2] - 0x2000_0000 for op in memory_ops(segments)} <= set(
        range(0, 64, 8))


@pytest.mark.parametrize("locality", (0.0, 1.0))
def test_locality_extremes(locality):
    mix = InstructionMix(loads=0.6, stores=0.2, int_alu=0.2, branches=0.0,
                         working_set_bytes=1024, locality=locality)
    assert_same_stream([tree("f", SyntheticFunction("f", 400, mix))])


@pytest.mark.parametrize("mix", (
    InstructionMix(int_alu=0, int_mul=0, loads=0, stores=0, branches=1.0,
                   branch_predictability=0.5, branch_taken_fraction=0.3),
    InstructionMix(int_alu=0, int_mul=0, loads=0, stores=0, branches=0,
                   fp=1.0),
), ids=("branches-only", "fp-only"))
def test_single_kind_mixes(mix):
    segments = assert_same_stream(
        [tree("f", SyntheticFunction("f", 300, mix))])
    assert len({op[0] for op in segments[0][1:-1]}) == 1


def test_instruction_factor():
    assert_same_stream([random_tree(4)], seed=4, instruction_factor=1.8)


def test_address_offset():
    segments = assert_same_stream([random_tree(6)], seed=6,
                                  address_offset=0x40_0000)
    assert min(op[2] for op in memory_ops(segments)) >= 0x2040_0000


def test_colliding_pc_bases_keep_their_own_ops():
    """Two names share ``crc32 & 0xFFFF`` (so their pcs coincide) but not
    their mixes: op tables are keyed by name, not by pc base."""
    first, second = "collide_1623", "collide_8000"
    assert (zlib.crc32(first.encode()) & 0xFFFF
            == zlib.crc32(second.encode()) & 0xFFFF)
    stores = InstructionMix(int_alu=0.2, loads=0.0, stores=0.6, branches=0.2)
    loads = InstructionMix(int_alu=0.2, loads=0.6, stores=0.0, branches=0.2,
                           fp=0.3)
    workload = tree("main",
                    SyntheticFunction("main", 50, MEMORY_FREE,
                                      [(first, 2), (second, 2)]),
                    SyntheticFunction(first, 150, stores),
                    SyntheticFunction(second, 150, loads))
    segments = assert_same_stream([workload])
    assert memory_ops(segments, OpClass.LOAD)
    assert memory_ops(segments, OpClass.STORE)


def test_reused_name_with_another_mix():
    """One executor runs two trees that give one function name different
    mixes: each run uses its own tree's mix."""
    one = tree("f", SyntheticFunction("f", 200, MEMORY))
    other = tree("f", SyntheticFunction("f", 200, MEMORY_FREE))
    assert_same_stream([one, other, one])


# -- committed sqlite digests ------------------------------------------------


def _perfbench_workloads():
    """``perfbench/workloads.py``, imported under a private module name."""
    name = "_perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(ROOT, "perfbench", "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _assert_sqlite_digest(seed: int) -> None:
    from repro.api import Session

    bench = _perfbench_workloads()
    workload = bench.WORKLOADS["sqlite-record-x60"]
    expected = bench.expected_digest(workload, seed)
    assert expected is not None, f"no committed digest for seed {seed}"
    run = Session(bench.PLATFORM).run(workload.create(), workload.spec(seed))
    assert bench.run_digest(run) == expected


@pytest.mark.parametrize("seed", (42, 7))
def test_sqlite_record_digest(seed):
    _assert_sqlite_digest(seed)


def _committed_sqlite_seeds() -> List[int]:
    bench = _perfbench_workloads()
    return sorted(int(seed)
                  for seed in bench.load_digests()["sqlite-record-x60"])


@pytest.mark.slow
@pytest.mark.parametrize("seed", _committed_sqlite_seeds())
def test_sqlite_record_digest_all_committed_seeds(seed):
    _assert_sqlite_digest(seed)
