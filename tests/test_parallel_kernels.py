"""The sharded compiled-kernel workloads: one ``_shard`` feeds every view.

``matmul-parallel`` and ``stream-triad-mt`` derive their thread bodies,
their static-race ``shard_plans`` and their roofline from one per-shard
allocation.  These tests pin that the race detector sees exactly the
arguments the threads run with, that each triad thread's heap starts at its
own base with nothing below or after its slice, and that the two kernel
benchmark workloads still produce the digests committed in
``perfbench/expected_digests.json`` (read-only).
"""

import pytest

from repro.api import ProfileSpec
from repro.platforms import Machine, spacemit_x60
from repro.vm import ExecutionEngine, Memory, MemoryError_
from repro.workloads import registry
from repro.workloads.parallel import THREAD_ADDRESS_STRIDE
from test_synthetic_trace import _perfbench_workloads

SPEC = ProfileSpec().counting()

PARAMS = {
    "matmul-parallel": {"n": 12},
    "stream-triad-mt": {"n": 256},
}


def _run_threads(monkeypatch, workload, cpus):
    """Drain every thread body of *workload*, recording its kernel calls.

    Returns ``{thread name: [(function, args, memory), ...]}`` with one
    entry per ``run_yielding`` call the thread made.
    """
    calls = []
    original = ExecutionEngine.run_yielding

    def spy(engine, function_name, args=(), quantum=None):
        calls.append((function_name, tuple(args), engine.memory))
        return original(engine, function_name, args, quantum)

    monkeypatch.setattr(ExecutionEngine, "run_yielding", spy)
    machine = Machine(spacemit_x60())
    runs = {}
    for name, body in workload.threads(cpus, SPEC):
        start = len(calls)
        for _ in body(machine, machine.create_task(name)):
            pass
        runs[name] = calls[start:]
    return runs


@pytest.mark.parametrize("cpus", (1, 2, 4))
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_shard_plans_match_thread_run_args(monkeypatch, name, cpus):
    workload = registry.create(name, **PARAMS[name])
    runs = _run_threads(monkeypatch, workload, cpus)
    plans = workload.shard_plans(cpus, SPEC)
    assert [plan.thread for plan in plans] == list(runs)
    # matmul runs its row block once; triad walks its slice in 3 passes.
    passes = 3 if name == "stream-triad-mt" else 1
    for plan in plans:
        assert [(function, args) for function, args, _ in runs[plan.thread]] \
            == [(plan.function, plan.args)] * passes


def test_matmul_drops_row_shards_with_no_rows():
    workload = registry.create("matmul-parallel", n=5)
    plans = workload.shard_plans(4, SPEC)
    assert [plan.args[-2:] for plan in plans] == [(0, 2), (2, 4), (4, 5)]
    assert [name for name, _ in workload.threads(4, SPEC)] == [
        plan.thread for plan in plans]


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_triad_thread_heap_holds_only_its_slice(monkeypatch, cpus):
    n = PARAMS["stream-triad-mt"]["n"]
    workload = registry.create("stream-triad-mt", n=n)
    runs = _run_threads(monkeypatch, workload, cpus)
    assert len(runs) == cpus
    slice_bytes = 3 * n * 4
    for index, calls in enumerate(runs.values()):
        _, args, memory = calls[0]
        base = Memory.HEAP_BASE + index * THREAD_ADDRESS_STRIDE
        assert args[:3] == (base, base + n * 4, base + 2 * n * 4)
        memory.read_bytes(base, slice_bytes)
        for address in (base - 1, base + slice_bytes):
            with pytest.raises(MemoryError_):
                memory.read_bytes(address, 1)


def _committed_kernel_cases():
    bench = _perfbench_workloads()
    digests = bench.load_digests()
    return [(name, int(seed))
            for name in ("matmul-roofline-x60", "triad-mt-x60")
            for seed in sorted(digests[name], key=int)]


@pytest.mark.parametrize("name,seed", _committed_kernel_cases())
def test_kernel_benchmark_digest(name, seed):
    from repro.api import Session

    bench = _perfbench_workloads()
    workload = bench.WORKLOADS[name]
    run = Session(bench.PLATFORM).run(workload.create(), workload.spec(seed))
    assert bench.run_digest(run) == bench.expected_digest(workload, seed)
