"""Differential oracle: per-op vs overflow-horizon batched retirement.

``CoreTimingModel.retire_batch`` coalesces event publication up to the
nearest armed overflow and retires the crossing op through the per-op
publication order.  These tests pin that to per-op retirement
(``Machine.execute`` per op) on seeded random synthetic call trees --
varied depth, instruction mix and working set -- under every leader shape
the horizon handles:

* the SpacemiT X60's group-leader workaround (``u_mode_cycle`` leads,
  cycles/instructions ride along);
* a direct ``cycles`` leader on the i5;
* a group led by ``instructions``;
* a leader on an event the horizon cannot bound (``cache-misses``), which
  degrades to per-op publication;

at sample periods from 1 (an overflow on every op, several per op when an
op costs more than one cycle) to 6000.  Sample streams (ip, time,
callchain, group values), counter reads, bus totals and the cache
hierarchy's stats must be identical; the last compare the batched
``access_lines`` walk with per-op ``access`` directly.  The predictor
oracle at the end compares gshare's exact state (history, counter table,
unrounded prediction counts) after ``retire_batch``'s inline update with
a ``retire`` loop's.
"""

import random

import pytest

from repro.cpu.events import HwEvent
from repro.isa.machine_ops import MEMORY_OP_CLASSES, MachineOp, OpClass
from repro.miniperf.cpuid import identify_machine
from repro.miniperf.groups import GroupPlan, plan_sampling_group
from repro.platforms import Machine, platform_by_name
from repro.workloads.synthetic import (
    InstructionMix,
    SyntheticFunction,
    SyntheticWorkload,
    TraceExecutor,
)

PERIODS = (1, 2, 7, 997, 6000)

#: ``name -> (platform, leader, members)``; a None leader plans the group
#: the way miniperf does (the X60 then takes its workaround leader).
GROUPS = {
    "x60-workaround": ("x60", None, (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)),
    "i5-cycles": ("i5", HwEvent.CYCLES, (HwEvent.INSTRUCTIONS,)),
    "i5-instructions": ("i5", HwEvent.INSTRUCTIONS, (HwEvent.CYCLES,)),
    "i5-cache-misses": ("i5", HwEvent.CACHE_MISSES,
                        (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)),
}

#: Upper bound on a generated trace's machine ops, to keep period-1 runs
#: (one sample per op) cheap.
MAX_TRACE_OPS = 4_000


def random_tree(seed: int) -> SyntheticWorkload:
    """A seeded acyclic call tree: function *i* may call any *j > i*, so
    the depth reaches the function count."""
    rng = random.Random(seed)
    count = rng.randint(2, 6)
    names = [f"gen{seed}_f{i}" for i in range(count)]
    tree = SyntheticWorkload(f"generated-{seed}", names[0])
    for i, name in enumerate(names):
        callees = [(callee, rng.randint(1, 2)) for callee in names[i + 1:]
                   if rng.random() < 0.45]
        mix = InstructionMix(
            int_alu=rng.random(),
            int_mul=rng.random() * 0.2,
            loads=rng.random() * 0.6,
            stores=rng.random() * 0.3,
            branches=rng.random() * 0.4,
            fp=rng.choice((0.0, rng.random() * 0.3)),
            working_set_bytes=rng.choice((256, 8 * 1024, 128 * 1024, 4 << 20)),
            locality=rng.random(),
            branch_taken_fraction=rng.random(),
            branch_predictability=rng.random(),
        )
        tree.add(SyntheticFunction(name, rng.randint(1, 400), mix, callees))

    def ops(name: str) -> int:
        function = tree.function(name)
        return function.ops_per_call + 2 + sum(
            calls * ops(callee) for callee, calls in function.callees)

    while ops(tree.entry) > MAX_TRACE_OPS:
        for function in tree.functions.values():
            function.ops_per_call = max(1, function.ops_per_call // 2)
    return tree


def _group_plan(machine: Machine, leader, members, period: int) -> GroupPlan:
    cpu = identify_machine(machine)
    if leader is None:
        return plan_sampling_group(cpu, list(members), period)
    return GroupPlan(leader_event=leader, member_events=list(members),
                     sample_period=period, used_workaround=False, cpu=cpu)


def record_trace(group: str, period: int, seed: int, batched: bool) -> dict:
    """Sample one generated trace; everything observable, minus pid/tid."""
    def drive(machine: Machine, task) -> None:
        TraceExecutor(machine, task, seed=seed, batched=batched).run(
            random_tree(seed))
    return _record(group, period, drive)


def _record(group: str, period: int, drive) -> dict:
    """Sample what ``drive(machine, task)`` retires under *group*;
    everything observable, minus pid/tid."""
    platform, leader, members = GROUPS[group]
    machine = Machine(platform_by_name(platform))
    task = machine.create_task("generated")
    plan = _group_plan(machine, leader, members, period)
    perf = machine.perf
    leader_fd = perf.perf_event_open(plan.leader_attr(callchain=True), task)
    member_fds = [perf.perf_event_open(attr, task, group_fd=leader_fd)
                  for attr in plan.member_attrs()]
    buffer = perf.mmap(leader_fd)
    perf.enable(leader_fd)
    drive(machine, task)
    reads = [perf.read(fd) for fd in [leader_fd] + member_fds]
    perf.disable(leader_fd)
    return {
        "leader": plan.leader_event,
        "samples": [(s.ip, s.time, s.period, s.event, s.callchain,
                     s.group_values, s.cpu) for s in buffer.drain()],
        "lost": buffer.lost,
        "reads": [(r.value, r.time_enabled, r.time_running, r.group)
                  for r in reads],
        "totals": machine.bus.totals.as_dict(),
        "cycles": machine.cycles,
        "instructions": machine.instructions,
        "pc": task.current_pc,
        "interrupts": perf.overflow_interrupts,
        "cache": machine.hierarchy.stats(),
    }


def _assert_identical(group: str, period: int, seed: int) -> dict:
    per_op = record_trace(group, period, seed, batched=False)
    batched = record_trace(group, period, seed, batched=True)
    assert batched == per_op
    return per_op


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("seed", (0, 1))
def test_batched_retirement_matches_per_op(group, period, seed):
    result = _assert_identical(group, period, seed)
    if group == "x60-workaround":
        assert result["leader"] is HwEvent.U_MODE_CYCLE
    if period <= (1 if group == "i5-cache-misses" else 7):
        # Not vacuous: short periods sample throughout the trace.
        assert len(result["samples"]) > 1


@pytest.mark.slow
@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("seed", range(2, 12))
def test_batched_retirement_matches_per_op_sweep(group, seed):
    for period in PERIODS:
        _assert_identical(group, period, seed)


def test_generated_trees_vary():
    """The generator covers several depths and trace sizes."""
    depths, sizes = set(), set()
    for seed in range(12):
        tree = random_tree(seed)

        def depth(name: str) -> int:
            callees = tree.function(name).callees
            return 1 + max((depth(callee) for callee, _ in callees), default=0)

        depths.add(depth(tree.entry))
        sizes.add(len(tree.functions))
    assert len(depths) >= 3
    assert len(sizes) >= 3


def test_single_op_can_overflow_several_times():
    """Period 1 on cycles: a cache-missing load retires many cycles in one
    op, so one op raises several samples, all at that op's pc and time."""
    result = _assert_identical("i5-cycles", 1, 0)
    times = [sample[1] for sample in result["samples"]]
    assert len(times) > len(set(times))


# -- site ops: addresses only in mem_accesses ---------------------------------

_SCALAR_MEMORY = (OpClass.LOAD, OpClass.STORE)
_VECTOR_MEMORY = (OpClass.VECTOR_LOAD, OpClass.VECTOR_STORE)
_PLAIN = (OpClass.INT_ALU, OpClass.INT_DIV, OpClass.FP_FMA, OpClass.VECTOR_FMA)


def addressed_segments(seed: int) -> list:
    """Seeded segments of addressed ops: every dispatch kind, scalar and
    vector memory ops (some of size 0, some crossing a line) and taken and
    not-taken branches."""
    rng = random.Random(seed)
    segments = []
    for _ in range(40):
        ops = []
        for _ in range(rng.randint(1, 60)):
            pc = 0x1000 + 4 * rng.randrange(256)
            draw = rng.random()
            if draw < 0.45:
                vector = rng.random() < 0.3
                opclass = rng.choice(_VECTOR_MEMORY if vector else _SCALAR_MEMORY)
                size = rng.choice((0, 32, 64)) if vector else rng.choice((0, 4, 8))
                ops.append(MachineOp(opclass, size,
                                     0x4000_0000 + rng.randrange(1 << 18),
                                     8 if vector else 1, pc=pc))
            elif draw < 0.7:
                ops.append(MachineOp(OpClass.BRANCH, taken=rng.random() < 0.6,
                                     target=pc + 16, pc=pc))
            else:
                opclass = rng.choice(_PLAIN)
                ops.append(MachineOp(
                    opclass, lanes=8 if opclass is OpClass.VECTOR_FMA else 1,
                    pc=pc))
        segments.append(ops)
    return segments


def _site(op: MachineOp) -> MachineOp:
    """*op* as a batch carries it: a memory op without its address."""
    if op.opclass not in MEMORY_OP_CLASSES:
        return op
    return MachineOp(op.opclass, op.size_bytes, None, op.lanes, op.taken,
                     op.target, op.pc)


def retire_sites(machine: Machine, task, seed: int, batched: bool) -> None:
    """Retire :func:`addressed_segments` each under its own call chain:
    batched as site ops plus ``mem_accesses``, or op by op with addresses."""
    for index, ops in enumerate(addressed_segments(seed)):
        task.push_frame(f"site{index % 3}")
        if batched:
            machine.execute_batch(
                [_site(op) for op in ops], task,
                [(op.address, op.size_bytes, op.is_store) for op in ops
                 if op.is_memory and op.size_bytes > 0])
        else:
            for op in ops:
                machine.execute(op, task)
        if index % 2:
            task.pop_frame()


def record_sites(group: str, period: int, seed: int, batched: bool) -> dict:
    """Sample :func:`retire_sites` under *group*."""
    return _record(group, period, lambda machine, task: retire_sites(
        machine, task, seed, batched))


@pytest.mark.parametrize("period", (1, 7, 997))
@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("seed", (0, 1))
def test_site_ops_with_accesses_match_addressed_per_op(group, period, seed):
    """Batches of address-free site ops whose addresses travel only in
    ``mem_accesses`` sample, count and fill the caches exactly as per-op
    retirement of the same ops with their addresses."""
    per_op = record_sites(group, period, seed, batched=False)
    assert record_sites(group, period, seed, batched=True) == per_op
    if period <= (1 if group == "i5-cache-misses" else 7):
        chains = {sample[4] for sample in per_op["samples"]}
        assert len(chains) > 1      # crossings under several call chains


# -- predictor-state oracle: gshare inline in retire_batch ---------------------


def branch_segments(seed: int) -> list:
    """Seeded branch-heavy segments: mostly branches at pcs unique within a
    segment (so a crossing op is located by its pc), with loads, stores and
    plain ops between them, and runs of biased and of random outcomes."""
    rng = random.Random(seed)
    segments = []
    for _ in range(30):
        base = 0x1000 + 4 * rng.randrange(1 << 12)
        bias = rng.choice((0.05, 0.5, 0.95))
        ops = []
        for i in range(rng.randint(1, 80)):
            pc = base + 4 * i
            draw = rng.random()
            if draw < 0.7:
                ops.append(MachineOp(OpClass.BRANCH, taken=rng.random() < bias,
                                     target=pc + 16, pc=pc))
            elif draw < 0.85:
                ops.append(MachineOp(rng.choice(_SCALAR_MEMORY), 8,
                                     0x4000_0000 + rng.randrange(1 << 16),
                                     pc=pc))
            else:
                ops.append(MachineOp(rng.choice(_PLAIN), pc=pc))
        segments.append(ops)
    return segments


def _predictor_state(machine: Machine) -> tuple:
    """The predictor exactly: history, the counter table in insertion
    order, and the unrounded prediction counts."""
    predictor = machine.predictor
    return (predictor._history, list(predictor._counters.items()),
            predictor.predictions, predictor.mispredictions)


def predict_branches(group: str, period: int, seed: int, batched: bool):
    """Retire :func:`branch_segments` under *group*: batched through
    ``retire_batch``, or op by op through ``retire``.  Returns the recorded
    run, the predictor's state and, batched, each crossing op as
    ``(segment, index)``."""
    machines, crossings = [], []

    def drive(machine: Machine, task) -> None:
        core = machine.core
        retire_one = core._retire_one
        for ops in branch_segments(seed):
            if not batched:
                for op in ops:
                    machine.execute(op, task)
                continue

            def crossing(op, *rest, ops=ops, pcs=[op.pc for op in ops]):
                crossings.append((ops, pcs.index(op.pc)))
                retire_one(op, *rest)

            core._retire_one = crossing
            machine.execute_batch(
                [_site(op) for op in ops], task,
                [(op.address, op.size_bytes, op.is_store) for op in ops
                 if op.is_memory])
            core._retire_one = retire_one
        machines.append(machine)

    recorded = _record(group, period, drive)
    return recorded, _predictor_state(machines[0]), crossings


@pytest.mark.parametrize("period", (1, 2, 3, 7, 61, 997, 6000))
@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("seed", (0, 1))
def test_inline_predictor_matches_per_op_update(group, period, seed):
    """``retire_batch`` runs gshare's update inline on locals and writes it
    back once per pass; its history, counters and exact prediction counts
    equal a ``retire`` loop's (``Machine.stats`` rounds the miss rate, so
    only this comparison catches a crossing branch counted twice or not at
    all)."""
    per_op, expected, _ = predict_branches(group, period, seed, batched=False)
    recorded, state, crossings = predict_branches(group, period, seed,
                                                  batched=True)
    assert state == expected
    assert recorded == per_op
    assert expected[2] > 100 and 0 < expected[3] < expected[2]
    if period <= (1 if group == "i5-cache-misses" else 3):
        # Not vacuous: a pass ends on a branch, and a branch opens the next.
        assert any(ops[i].is_branch for ops, i in crossings)
        assert any(i + 1 < len(ops) and ops[i + 1].is_branch
                   for ops, i in crossings)


def test_inline_predictor_matches_on_sqlite_record():
    """A ``sqlite3-like`` record leaves the X60's predictor in the same
    state with every fast path on as with every one off."""
    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    spec = ProfileSpec(sample_period=6000, analyses=("hotspots",))
    states = []
    for fast in (True, False):
        session = Session("SpacemiT X60")
        run = session.run(registry.create("sqlite3-like", scale=1),
                          spec if fast else spec.without_fast_paths())
        assert run.recording.sample_count > 0
        states.append(_predictor_state(session.machine()))
    assert states[0] == states[1]
    assert states[0][2] > 10_000 and states[0][3] > 0
