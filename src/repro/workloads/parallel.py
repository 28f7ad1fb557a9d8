"""Multi-threaded workloads for the SMP subsystem.

Three parallel workloads behind one small :class:`ParallelWorkload` protocol:

* ``matmul-parallel`` -- the paper's matmul, sharded by row blocks: every
  thread computes a contiguous block of output rows of one *shared* matrix
  set (all threads allocate identically, so A/B/C occupy the same addresses
  on every hart -- B is constructively shared in the LLC, C/A row blocks are
  disjoint).  Strong scaling: the matrix size is fixed, more harts split it.
* ``stream-triad-mt`` -- contended memory streams: every thread runs STREAM
  triad over its own slice, in a heap based at a disjoint address range,
  for several passes.  Weak scaling: per-thread slices are fixed, more harts
  add footprint until the combined slices overflow the shared LLC -- which
  is exactly the contention the scaling benchmark measures.
* ``forkjoin-calltree`` -- a fork-join synthetic call tree: worker threads
  (more workers than harts, so runqueues actually time-slice) each replay a
  seeded subtree with its own address-space offset; samples carry per-worker
  call chains for the per-hart flame graphs.

The two compiled kernels share one shape, :class:`ShardedKernelWorkload`,
so the addresses the static race detector certifies (``shard_plans``) are
the ones the threads use.

A parallel workload is also a plain :class:`~repro.api.workload.Workload`:
``executable()`` runs every shard sequentially on one machine, which is what
``cpus=1`` means and keeps these workloads usable by every single-hart code
path (and bit-deterministic there).

The compiled-kernel shards execute through
:meth:`~repro.vm.engine.ExecutionEngine.run_yielding`: the engine itself is
the quantum generator, yielding to the scheduler every ``DEFAULT_QUANTUM``
executed IR instructions at the next block boundary -- so a thread is
preempted *mid-function* without losing predecode state, and the whole
quantum retires through ``Machine.execute_batch``.  ``spec.fast_dispatch``
picks the engine (generated code by default; the reference interpreter for
differential runs); quantum boundaries are identical in both modes, which
keeps SMP schedules, counters and sample streams bit-identical across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.analysis.races import KernelShardPlan, TraceShardPlan
from repro.compiler.cache import compile_source_cached
from repro.compiler.targets import target_for_platform
from repro.kernel.task import Task
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.vm import ExecutionEngine, Memory
from repro.workloads.kernels import STREAM_TRIAD_SOURCE, _matmul_args, _triad_args
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


class _ThreadedWorkload:
    """The single-hart ``executable()`` of a workload that shards itself."""

    def executable(self, machine: Machine, task: Task,
                   spec) -> Callable[[], None]:
        """Run the ``cpus=1`` thread bodies to completion, one after another."""
        def run() -> None:
            for _ in range(max(1, spec.invocations)):
                for _, body in self.threads(1, spec):
                    for _ in body(machine, task):
                        pass
        return run


class ShardedKernelWorkload(_ThreadedWorkload):
    """A KernelC kernel split into one shard per thread.

    A subclass sets ``SOURCE``, ``FUNCTION`` and ``THREAD_PREFIX`` and
    defines ``_shard(index, shards, memory=None)``: allocate shard *index*
    of *shards* -- into *memory* when given, else into the thread's own
    :class:`Memory` -- and return ``(memory, args)``, or None for a shard
    with no work.  The thread bodies, ``shard_plans`` and the roofline
    (shard 0 of 1) all derive from it.  A thread runs its kernel ``PASSES``
    times, yielding after each pass when ``PASS_BOUNDARY`` is set.
    """

    PASSES = 1
    PASS_BOUNDARY = False
    supports_roofline = True

    def _shards(self, cpus: int) -> List[Tuple[str, Memory, List[object]]]:
        shards = max(1, cpus)
        return [(f"{self.THREAD_PREFIX}-{index}", *shard)
                for index in range(shards)
                if (shard := self._shard(index, shards)) is not None]

    def _body(self, memory: Memory, args: List[object], spec) -> ThreadBody:
        def body(machine: Machine, task: Task) -> Iterator[None]:
            module = compile_source_cached(self.SOURCE, f"{self.FUNCTION}.c",
                                           machine.descriptor,
                                           spec.enable_vectorizer)
            engine = ExecutionEngine(module, machine,
                                     target_for_platform(machine.descriptor),
                                     task=task, memory=memory,
                                     fast_dispatch=spec.fast_dispatch)
            for _ in range(self.PASSES):
                yield from engine.run_yielding(self.FUNCTION, args)
                if self.PASS_BOUNDARY:
                    yield
        return body

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        return [(name, self._body(memory, args, spec))
                for name, memory, args in self._shards(cpus)]

    def shard_plans(self, cpus: int, spec) -> List[KernelShardPlan]:
        """The shards for the static race detector: the arguments each
        thread body passes, at the addresses it allocated them."""
        return [KernelShardPlan(thread=name, source=self.SOURCE,
                                filename=f"{self.FUNCTION}.c",
                                function=self.FUNCTION, args=tuple(args))
                for name, _, args in self._shards(cpus)]

    def roofline(self, descriptor: PlatformDescriptor, spec):
        """The compiler-driven roofline of the whole kernel (shard 0 of 1)."""
        from repro.api.workload import CompiledKernelWorkload
        kernel = CompiledKernelWorkload(
            self.name, self.SOURCE, self.FUNCTION,
            lambda memory: self._shard(0, 1, memory)[1],
            filename=f"{self.FUNCTION}.c")
        return kernel.roofline(descriptor, spec)


@dataclass
class MatmulParallelWorkload(ShardedKernelWorkload):
    """``matmul-parallel``: one n x n matmul sharded by output-row blocks.

    Every thread allocates the same matrices into its own fresh
    :class:`Memory`, so A/B/C occupy the same addresses on every hart.
    """

    n: int = 32
    description: str = ("row-sharded parallel matmul over shared matrices "
                        "(strong scaling)")
    name: str = field(default="matmul-parallel", init=False)
    kind: str = field(default="parallel-kernel", init=False)

    SOURCE = MATMUL_ROWS_SOURCE
    FUNCTION = "matmul_rows"
    THREAD_PREFIX = "matmul-worker"

    def _shard(self, index: int, shards: int, memory: Optional[Memory] = None
               ) -> Optional[Tuple[Memory, List[object]]]:
        rows = -(-self.n // shards)
        lo, hi = index * rows, min(self.n, (index + 1) * rows)
        if lo >= hi:
            return None
        memory = memory or Memory()
        return memory, [*_matmul_args(self.n, 7, memory), lo, hi]


@dataclass
class StreamTriadMtWorkload(ShardedKernelWorkload):
    """``stream-triad-mt``: per-thread triad slices, repeated passes.

    Per-thread footprint is ``3 * n * 4`` bytes in a heap of its own,
    ``THREAD_ADDRESS_STRIDE`` above the previous thread's.  One slice fits
    the shared LLC of every modelled platform at the default size, so a
    lone thread hits in LLC from pass two onward; several threads overflow
    it and evict each other -- the contended-memory-stream scenario, with
    the contention visible in per-hart cache-miss counters.
    """

    n: int = 16384
    description: str = ("multi-threaded STREAM triad over per-thread slices "
                        "(weak scaling, LLC contention)")
    name: str = field(default="stream-triad-mt", init=False)
    kind: str = field(default="parallel-kernel", init=False)

    SOURCE = STREAM_TRIAD_SOURCE
    FUNCTION = "triad"
    THREAD_PREFIX = "triad-worker"
    # One scheduling boundary per pass: the slice walks are what the
    # LLC-contention model interleaves.
    PASSES = 3
    PASS_BOUNDARY = True

    def _shard(self, index: int, shards: int, memory: Optional[Memory] = None
               ) -> Optional[Tuple[Memory, List[object]]]:
        memory = memory or Memory(
            heap_base=Memory.HEAP_BASE + index * THREAD_ADDRESS_STRIDE)
        return memory, _triad_args(self.n, 3.0, 13 + index, memory)


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
class ForkJoinCalltreeWorkload(_ThreadedWorkload):
    """``forkjoin-calltree``: worker threads replaying seeded call subtrees.

    Spawns ``WORKERS_PER_HART`` threads *per hart*, so every hart's runqueue
    holds more than one runnable task and the round-robin time-slicing is
    actually exercised.  Worker *t* seeds its trace generator with
    ``spec.seed + 101 * t`` and offsets its address space, so per-worker
    streams are distinct but fully deterministic.
    """

    scale: int = 1
    description: str = ("fork-join call-tree replay, multiple worker threads "
                        "per hart")
    name: str = field(default="forkjoin-calltree", init=False)
    kind: str = field(default="parallel-synthetic", init=False)

    WORKERS_PER_HART = 2
    #: Tree replays per worker, one scheduling boundary after each.
    REPEATS = 3
    supports_roofline = False

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
            for _ in range(self.REPEATS):
                executor.run(tree, invocations=1)
                yield
        return body

    def threads(self, cpus: int, spec) -> List[Tuple[str, ThreadBody]]:
        count = max(1, cpus) * self.WORKERS_PER_HART
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
        count = max(1, cpus) * self.WORKERS_PER_HART
        return [TraceShardPlan(
                    thread=f"forkjoin-worker-{index}",
                    base=0x2000_0000 + index * THREAD_ADDRESS_STRIDE,
                    extent=extent)
                for index in range(count)]

    def roofline(self, descriptor: PlatformDescriptor, spec):
        raise NotImplementedError(
            f"workload {self.name!r} is a synthetic trace replay; the "
            "compiler-driven roofline flow needs a compiled kernel"
        )
