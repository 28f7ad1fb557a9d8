"""Multi-threaded workloads for the SMP subsystem.

Three parallel workloads behind one small :class:`ParallelWorkload` protocol:

* ``matmul-parallel`` -- the paper's matmul, sharded by row blocks: every
  thread computes a contiguous block of output rows of one *shared* matrix
  set (all threads allocate identically, so A/B/C occupy the same addresses
  on every hart -- B is constructively shared in the LLC, C/A row blocks are
  disjoint).  Strong scaling: the matrix size is fixed, more harts split it.
* ``stream-triad-mt`` -- contended memory streams: every thread runs STREAM
  triad over its own slice, placed at a disjoint address range, for several
  passes.  Weak scaling: per-thread slices are fixed, more harts add
  footprint until the combined slices overflow the shared LLC -- which is
  exactly the contention the scaling benchmark measures.
* ``forkjoin-calltree`` -- a fork-join synthetic call tree: worker threads
  (more workers than harts, so runqueues actually time-slice) each replay a
  seeded subtree with its own address-space offset; samples carry per-worker
  call chains for the per-hart flame graphs.

A parallel workload is also a plain :class:`~repro.api.workload.Workload`:
``executable()`` runs every shard sequentially on one machine, which is what
``cpus=1`` means and keeps these workloads usable by every single-hart code
path (and bit-deterministic there).

The compiled-kernel shards execute through
:meth:`~repro.vm.engine.ExecutionEngine.run_yielding`: the engine itself is
the quantum generator, yielding to the scheduler every ``quantum`` executed
IR instructions at the next block boundary -- so a thread is preempted
*mid-function* without losing predecode state, and the whole quantum retires
through ``Machine.execute_batch``.  ``spec.fast_dispatch`` picks the engine
(predecoded thunks by default; the reference interpreter for differential
runs); quantum boundaries are identical in both modes, which keeps SMP
schedules, counters and sample streams bit-identical across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Protocol, Sequence, Tuple, runtime_checkable

from repro.analysis.races import KernelShardPlan, TraceShardPlan
from repro.compiler.cache import compile_source_cached
from repro.compiler.targets import target_for_platform
from repro.kernel.task import Task
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.vm import ExecutionEngine, Memory
from repro.workloads.kernels import _random_floats
from repro.workloads.sqlite3_like import instruction_factor_for
from repro.workloads.synthetic import (
    InstructionMix,
    SyntheticFunction,
    SyntheticWorkload,
    TraceExecutor,
)

#: A thread body, as the SMP scheduler consumes it: bound to (hart machine,
#: task), yields between quanta.  (Type kept structural so this module does
#: not depend on :mod:`repro.smp`.)
ThreadBody = Callable[[Machine, Task], Iterator[None]]

#: Address-space stride between software threads (16 MiB): working sets of
#: different threads never alias unless they genuinely share data.
THREAD_ADDRESS_STRIDE = 0x0100_0000


@runtime_checkable
class ParallelWorkload(Protocol):
    """What the SMP session path needs beyond the base Workload protocol."""

    name: str

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        """Shard the workload into named thread bodies for *cpus* harts."""
        ...


#: Row-sharded matmul: each thread computes output rows [lo, hi).
MATMUL_ROWS_SOURCE = """
void matmul_rows(float* A, float* B, float* C, long n, long lo, long hi) {
  for (long i = lo; i < hi; i++) {
    for (long j = 0; j < n; j++) {
      float sum = 0.0f;
      for (long k = 0; k < n; k++) {
        sum += A[i * n + k] * B[k * n + j];
      }
      C[i * n + j] = sum;
    }
  }
}
"""


def _drain(bodies: Sequence[Tuple[str, ThreadBody]], machine: Machine,
           task: Task) -> None:
    """Run thread bodies to completion, one after another (cpus=1 semantics)."""
    for _, body in bodies:
        for _ in body(machine, task):
            pass


@dataclass
class MatmulParallelWorkload:
    """``matmul-parallel``: one n x n matmul sharded by output-row blocks."""

    n: int = 32
    #: Scheduler time slice in executed IR instructions; 0 uses the engine's
    #: default quantum.
    quantum: int = 0
    description: str = ("row-sharded parallel matmul over shared matrices "
                        "(strong scaling)")
    name: str = field(default="matmul-parallel", init=False)
    kind: str = field(default="parallel-kernel", init=False)

    def _allocate(self, memory: Memory) -> List[object]:
        n = self.n
        a = memory.alloc_float_array(_random_floats(n * n, 7))
        b = memory.alloc_float_array(_random_floats(n * n, 8))
        c = memory.alloc_float_array([0.0] * (n * n))
        return [a, b, c, n]

    def _body(self, lo: int, hi: int, spec) -> ThreadBody:
        def body(machine: Machine, task: Task) -> Iterator[None]:
            module = compile_source_cached(MATMUL_ROWS_SOURCE, "matmul_rows.c",
                                           machine.descriptor,
                                           spec.enable_vectorizer)
            target = target_for_platform(machine.descriptor)
            memory = Memory()
            base_args = self._allocate(memory)
            engine = ExecutionEngine(module, machine, target, task=task,
                                     memory=memory,
                                     fast_dispatch=spec.fast_dispatch)
            # The engine is the quantum generator: it yields every `quantum`
            # executed IR instructions, so preemption lands mid-function.
            yield from engine.run_yielding("matmul_rows",
                                           base_args + [lo, hi],
                                           quantum=self.quantum or None)
        return body

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        shards = max(1, cpus)
        rows_per = (self.n + shards - 1) // shards
        out: List[Tuple[str, ThreadBody]] = []
        for index in range(shards):
            lo = index * rows_per
            hi = min(self.n, lo + rows_per)
            if lo >= hi:
                break
            out.append((f"matmul-worker-{index}", self._body(lo, hi, spec)))
        return out

    def shard_plans(self, cpus: int, spec) -> List[KernelShardPlan]:
        """Describe the shards for the static race detector.

        Every thread body builds a fresh :class:`Memory` and allocates
        identically, so one allocation here reproduces the addresses every
        thread sees -- A/B/C are genuinely shared across threads.
        """
        base_args = self._allocate(Memory())
        plans: List[KernelShardPlan] = []
        for index, (name, _body) in enumerate(self.threads(cpus, spec)):
            shards = max(1, cpus)
            rows_per = (self.n + shards - 1) // shards
            lo = index * rows_per
            hi = min(self.n, lo + rows_per)
            plans.append(KernelShardPlan(
                thread=name, source=MATMUL_ROWS_SOURCE,
                filename="matmul_rows.c", function="matmul_rows",
                args=tuple(base_args + [lo, hi]),
            ))
        return plans

    def executable(self, machine: Machine, task: Task,
                   spec) -> Callable[[], None]:
        def run() -> None:
            for _ in range(max(1, spec.invocations)):
                _drain(self.threads(1, spec), machine, task)
        return run

    @property
    def supports_roofline(self) -> bool:
        return True

    def roofline(self, descriptor: PlatformDescriptor, spec):
        from repro.roofline.runner import RooflineRunner
        runner = RooflineRunner(
            descriptor,
            enable_vectorizer=spec.enable_vectorizer,
            vendor_driver=spec.vendor_driver is not False,
            fast_dispatch=spec.fast_dispatch,
        )
        def args_builder(memory: Memory) -> Sequence[object]:
            return self._allocate(memory) + [0, self.n]
        return runner.run_source(MATMUL_ROWS_SOURCE, "matmul_rows",
                                 args_builder, repeats=spec.repeats,
                                 filename="matmul_rows.c")


#: Per-slice STREAM triad (each thread owns a private slice, so the plain
#: single-array kernel is the whole shard).
TRIAD_SLICE_SOURCE = """
void triad(float* a, float* b, float* c, float scalar, long n) {
  for (long i = 0; i < n; i++) {
    a[i] = b[i] + scalar * c[i];
  }
}
"""


@dataclass
class StreamTriadMtWorkload:
    """``stream-triad-mt``: per-thread triad slices, repeated passes.

    Per-thread footprint is ``3 * n * 4`` bytes at a thread-private address
    range.  One slice fits the shared LLC of every modelled platform at the
    default size, so a lone thread hits in LLC from pass two onward; several
    threads overflow it and evict each other -- the contended-memory-stream
    scenario, with the contention visible in per-hart cache-miss counters.
    """

    n: int = 16384
    passes: int = 3
    #: Scheduler time slice in executed IR instructions; 0 uses the engine's
    #: default quantum.
    quantum: int = 0
    description: str = ("multi-threaded STREAM triad over per-thread slices "
                        "(weak scaling, LLC contention)")
    name: str = field(default="stream-triad-mt", init=False)
    kind: str = field(default="parallel-kernel", init=False)

    def _body(self, index: int, spec) -> ThreadBody:
        def body(machine: Machine, task: Task) -> Iterator[None]:
            module = compile_source_cached(TRIAD_SLICE_SOURCE, "triad.c",
                                           machine.descriptor,
                                           spec.enable_vectorizer)
            target = target_for_platform(machine.descriptor)
            memory = Memory()
            if index:
                # Shift this thread's slice to a disjoint address range.
                memory.malloc(index * THREAD_ADDRESS_STRIDE)
            a = memory.alloc_float_array([0.0] * self.n)
            b = memory.alloc_float_array(_random_floats(self.n, 13 + index))
            c = memory.alloc_float_array(_random_floats(self.n, 14 + index))
            engine = ExecutionEngine(module, machine, target, task=task,
                                     memory=memory,
                                     fast_dispatch=spec.fast_dispatch)
            for _ in range(self.passes):
                # Quantum yields mid-pass, plus one boundary per pass (the
                # slice walks are what the LLC-contention model interleaves).
                yield from engine.run_yielding("triad", [a, b, c, 3.0, self.n],
                                               quantum=self.quantum or None)
                yield
        return body

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        return [(f"triad-worker-{index}", self._body(index, spec))
                for index in range(max(1, cpus))]

    def shard_plans(self, cpus: int, spec) -> List[KernelShardPlan]:
        """Describe the shards for the static race detector.

        Mirrors ``_body``'s per-thread allocation exactly (including the
        address-stride shift), so the plan addresses are the ones the
        threads will load and store through.
        """
        plans: List[KernelShardPlan] = []
        for index in range(max(1, cpus)):
            memory = Memory()
            if index:
                memory.malloc(index * THREAD_ADDRESS_STRIDE)
            a = memory.alloc_float_array([0.0] * self.n)
            b = memory.alloc_float_array(_random_floats(self.n, 13 + index))
            c = memory.alloc_float_array(_random_floats(self.n, 14 + index))
            plans.append(KernelShardPlan(
                thread=f"triad-worker-{index}", source=TRIAD_SLICE_SOURCE,
                filename="triad.c", function="triad",
                args=(a, b, c, 3.0, self.n),
            ))
        return plans

    def executable(self, machine: Machine, task: Task,
                   spec) -> Callable[[], None]:
        def run() -> None:
            for _ in range(max(1, spec.invocations)):
                _drain(self.threads(1, spec), machine, task)
        return run

    @property
    def supports_roofline(self) -> bool:
        return True

    def roofline(self, descriptor: PlatformDescriptor, spec):
        from repro.roofline.runner import RooflineRunner
        runner = RooflineRunner(
            descriptor,
            enable_vectorizer=spec.enable_vectorizer,
            vendor_driver=spec.vendor_driver is not False,
            fast_dispatch=spec.fast_dispatch,
        )
        def args_builder(memory: Memory) -> Sequence[object]:
            a = memory.alloc_float_array([0.0] * self.n)
            b = memory.alloc_float_array(_random_floats(self.n, 13))
            c = memory.alloc_float_array(_random_floats(self.n, 14))
            return [a, b, c, 3.0, self.n]
        return runner.run_source(TRIAD_SLICE_SOURCE, "triad", args_builder,
                                 repeats=spec.repeats, filename="triad.c")


def forkjoin_tree(scale: int = 1) -> SyntheticWorkload:
    """The subtree each fork-join worker replays."""
    tree = SyntheticWorkload(name="forkjoin-worker", entry="fork_main")
    compute_mix = InstructionMix(int_alu=0.55, int_mul=0.05, loads=0.2,
                                 stores=0.05, branches=0.15,
                                 working_set_bytes=8 * 1024, locality=0.9)
    stream_mix = InstructionMix(int_alu=0.2, loads=0.45, stores=0.15,
                                branches=0.2, working_set_bytes=96 * 1024,
                                locality=0.85)
    tree.add(SyntheticFunction("hot_leaf", 600 * scale, compute_mix))
    tree.add(SyntheticFunction("merge_results", 250 * scale, stream_mix))
    tree.add(SyntheticFunction("fan_out", 150 * scale, InstructionMix(),
                               callees=[("hot_leaf", 2), ("merge_results", 1)]))
    tree.add(SyntheticFunction("fork_main", 100 * scale, InstructionMix(),
                               callees=[("fan_out", 2)]))
    return tree


@dataclass
class ForkJoinCalltreeWorkload:
    """``forkjoin-calltree``: worker threads replaying seeded call subtrees.

    Spawns ``workers_per_hart`` threads *per hart*, so every hart's runqueue
    holds more than one runnable task and the round-robin time-slicing is
    actually exercised.  Worker *t* seeds its trace generator with
    ``spec.seed + 101 * t`` and offsets its address space, so per-worker
    streams are distinct but fully deterministic.
    """

    scale: int = 1
    workers_per_hart: int = 2
    repeats: int = 3
    description: str = ("fork-join call-tree replay, multiple worker threads "
                        "per hart")
    name: str = field(default="forkjoin-calltree", init=False)
    kind: str = field(default="parallel-synthetic", init=False)

    def _body(self, index: int, spec) -> ThreadBody:
        tree = forkjoin_tree(self.scale)

        def body(machine: Machine, task: Task) -> Iterator[None]:
            executor = TraceExecutor(
                machine, task,
                seed=spec.seed + 101 * index,
                instruction_factor=instruction_factor_for(machine.descriptor.arch),
                address_offset=index * THREAD_ADDRESS_STRIDE,
                batched=spec.fast_dispatch,
            )
            for _ in range(self.repeats):
                executor.run(tree, invocations=1)
                yield
        return body

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        count = max(1, cpus) * self.workers_per_hart
        return [(f"forkjoin-worker-{index}", self._body(index, spec))
                for index in range(count)]

    def shard_plans(self, cpus: int, spec) -> List[TraceShardPlan]:
        """Describe the shards for the static race detector.

        A :class:`~repro.workloads.synthetic.TraceExecutor` lays function
        working sets out from ``0x2000_0000 + address_offset``, advancing by
        ``max(working_set_bytes, 4096) * 2`` per function, so a worker's
        whole footprint fits the summed envelope regardless of the order in
        which its seeded trace first touches each function.
        """
        tree = forkjoin_tree(self.scale)
        extent = sum(max(f.mix.working_set_bytes, 4096) * 2
                     for f in tree.functions.values())
        count = max(1, cpus) * self.workers_per_hart
        return [TraceShardPlan(
                    thread=f"forkjoin-worker-{index}",
                    base=0x2000_0000 + index * THREAD_ADDRESS_STRIDE,
                    extent=extent)
                for index in range(count)]

    def executable(self, machine: Machine, task: Task,
                   spec) -> Callable[[], None]:
        def run() -> None:
            for _ in range(max(1, spec.invocations)):
                _drain(self.threads(1, spec), machine, task)
        return run

    @property
    def supports_roofline(self) -> bool:
        return False

    def roofline(self, descriptor: PlatformDescriptor, spec):
        raise NotImplementedError(
            f"workload {self.name!r} is a synthetic trace replay; the "
            "compiler-driven roofline flow needs a compiled kernel"
        )
