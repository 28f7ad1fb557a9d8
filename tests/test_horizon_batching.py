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
``access_lines`` walk with per-op ``access`` directly.
"""

import random

import pytest

from repro.cpu.events import HwEvent
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
    TraceExecutor(machine, task, seed=seed, batched=batched).run(
        random_tree(seed))
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
