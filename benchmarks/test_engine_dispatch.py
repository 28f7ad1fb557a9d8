"""Microbenchmarks: dispatch and retirement fast paths vs their references.

Two comparisons, both on the tiled matmul with full timing/PMU accounting:

* fast dispatch vs the reference interpreter;
* batched retirement vs per-op retirement (fast dispatch with every op
  retired through ``CoreTimingModel.retire``, the path ``Machine.execute``
  takes).  The measured
  ops/sec of both retirement modes are written to
  ``benchmarks/output/BENCH_retire.json`` to seed the repo's perf
  trajectory.

Each benchmark asserts the fast path actually wins and cross-checks that
both sides leave the machine in an identical state.  (The exhaustive
bit-level equivalence checks -- sampled runs, sample streams, multiplexing
-- live in ``tests/test_engine_fast_dispatch.py`` and
``tests/test_block_delta.py``.)
"""

import json
import os
import time

from repro.api import ProfileSpec, Session
from repro.compiler.frontend import compile_source
from repro.compiler.targets import target_for_platform
from repro.compiler.transforms import build_roofline_pipeline
from repro.platforms import Machine, spacemit_x60
from repro.runtime import RooflineRuntime
from repro.vm import ExecutionEngine, Memory
from repro.workloads import MATMUL_TILED_SOURCE, matmul_args_builder, registry

MATMUL_N = 16

#: Matrix size of the Session-level retirement benchmark (big enough that
#: execution dominates session overhead).
RETIRE_MATMUL_N = 24

#: Required fast-vs-reference speedup.  The local default (1.2x) keeps the
#: assertion robust on a loaded host; CI's dispatch-regression lane raises it
#: (REPRO_MIN_DISPATCH_SPEEDUP=1.5) so a fast path that quietly degrades
#: below 1.5x fails the build.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_DISPATCH_SPEEDUP", "1.2"))

#: Required batched-vs-per-op retirement speedup of the counting-mode
#: matmul-tiled Session run: 1.5x everywhere (locally and in the CI
#: perf-regression lane, which pins it explicitly via
#: REPRO_MIN_RETIRE_SPEEDUP), against a measured ~4.5x margin.
MIN_RETIRE_SPEEDUP = float(os.environ.get("REPRO_MIN_RETIRE_SPEEDUP", "1.5"))


def _run(fast_dispatch: bool):
    descriptor = spacemit_x60()
    module = compile_source(MATMUL_TILED_SOURCE, "matmul.c")
    build_roofline_pipeline(vector_width=descriptor.vector.sp_lanes()).run(module)
    machine = Machine(descriptor)
    task = machine.create_task("matmul")
    memory = Memory()
    args = matmul_args_builder(MATMUL_N)(memory)
    runtime = RooflineRuntime(module, machine, instrumented=False)
    engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                             task=task, memory=memory,
                             external_handlers=[runtime],
                             fast_dispatch=fast_dispatch)
    start = time.perf_counter()
    engine.run("matmul_tiled", args)
    elapsed = time.perf_counter() - start
    return engine.stats, machine, elapsed


def test_fast_dispatch_beats_reference_interpreter():
    fast_stats, fast_machine, fast_elapsed = _run(True)
    slow_stats, slow_machine, slow_elapsed = _run(False)

    fast_rate = fast_stats.ir_instructions / fast_elapsed
    slow_rate = slow_stats.ir_instructions / slow_elapsed
    speedup = slow_elapsed / fast_elapsed
    print(f"\nfast dispatch: {fast_rate:,.0f} IR inst/s; "
          f"reference: {slow_rate:,.0f} IR inst/s; speedup {speedup:.1f}x")

    # Same work, same modelled machine state either way.
    assert fast_stats == slow_stats
    assert fast_machine.cycles == slow_machine.cycles
    assert fast_machine.instructions == slow_machine.instructions
    assert fast_machine.event_totals() == slow_machine.event_totals()

    # The margin is ~17x with one generated generator per function; see
    # MIN_SPEEDUP for how the floor is set.
    assert speedup > MIN_SPEEDUP, (
        f"fast dispatch only {speedup:.2f}x faster than the reference "
        f"interpreter (required: {MIN_SPEEDUP}x)"
    )


def test_dispatch_rate_fast(benchmark):
    """Track the fast path's absolute throughput via pytest-benchmark."""
    stats, machine, _elapsed = benchmark.pedantic(_run, args=(True,),
                                                  rounds=1, iterations=1)
    assert stats.ir_instructions > 0
    assert machine.cycles > 0


def _retire_per_op(machine) -> None:
    """Route *machine*'s batched retirement through a per-op
    ``Machine.execute`` loop: fast dispatch still builds the batches, but
    every op retires (and walks the cache hierarchy) through
    ``CoreTimingModel.retire``, so the batch's pre-collected *mem_accesses*
    go unused."""
    def execute_batch(ops, task=None, mem_accesses=()):
        for op in ops:
            machine.execute(op, task)
    machine.execute_batch = execute_batch


def _session_counting_run(per_op: bool):
    """One counting-mode matmul-tiled Session run; ``per_op`` retires every
    op individually (see :func:`_retire_per_op`)."""
    session = Session("SpacemiT X60")
    machine = session.machine(True)
    if per_op:
        _retire_per_op(machine)
    workload = registry.create("matmul-tiled", n=RETIRE_MATMUL_N)
    start = time.perf_counter()
    run = session.run(workload, ProfileSpec().counting())
    elapsed = time.perf_counter() - start
    return run, machine, elapsed


def test_batched_retirement_beats_per_op(output_dir):
    """Counting-mode Session run: batched retirement vs per-op.

    Writes BENCH_retire.json (ops/sec for both modes) and enforces the
    1.5x speedup floor (REPRO_MIN_RETIRE_SPEEDUP; measured margin ~4.5x).
    """
    # Interleave and keep the best of three to shed scheduler noise.
    fast_times, slow_times = [], []
    for _ in range(3):
        fast_run, fast_machine, fast_elapsed = _session_counting_run(False)
        slow_run, slow_machine, slow_elapsed = _session_counting_run(True)
        fast_times.append(fast_elapsed)
        slow_times.append(slow_elapsed)
    fast_elapsed = min(fast_times)
    slow_elapsed = min(slow_times)

    # Same modelled machine state and counters on both retirement paths.
    assert fast_run.stat.counts == slow_run.stat.counts
    assert fast_machine.cycles == slow_machine.cycles
    assert fast_machine.event_totals() == slow_machine.event_totals()

    ops = fast_machine.instructions
    speedup = slow_elapsed / fast_elapsed
    payload = {
        "benchmark": "counting-mode matmul-tiled Session run "
                     f"(n={RETIRE_MATMUL_N}, SpacemiT X60)",
        "machine_ops": ops,
        "per_op_ops_per_sec": round(ops / slow_elapsed),
        "batched_ops_per_sec": round(ops / fast_elapsed),
        "per_op_seconds": round(slow_elapsed, 4),
        "batched_seconds": round(fast_elapsed, 4),
        "speedup": round(speedup, 3),
    }
    path = os.path.join(output_dir, "BENCH_retire.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nretirement: per-op {payload['per_op_ops_per_sec']:,} ops/s; "
          f"batched {payload['batched_ops_per_sec']:,} ops/s; "
          f"speedup {speedup:.2f}x (floor {MIN_RETIRE_SPEEDUP}x)")

    assert speedup > MIN_RETIRE_SPEEDUP, (
        f"batched retirement only {speedup:.2f}x faster than per-op "
        f"retirement (required: {MIN_RETIRE_SPEEDUP}x)"
    )
