"""The :class:`Workload` protocol: anything a Session can profile.

The paper's toolchain profiles two very different kinds of programs --
synthetic call-tree trace replays (the sqlite3-shaped workload of Table 2 /
Figure 3) and compiled KernelC kernels executed on the fast-dispatch VM
engine (the roofline kernels of Figure 4).  Both are unified behind one
small protocol: a workload knows how to produce a zero-argument *executable*
that drives a machine/task pair, and optionally how to run the two-phase
compiler-driven roofline flow for itself.

Concrete workloads are usually looked up by name in the registry
(:data:`repro.workloads.registry`) rather than constructed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.compiler.cache import compile_source_cached
from repro.compiler.targets import target_for_platform
from repro.kernel.task import Task
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.roofline.runner import ArgsBuilder, KernelRooflineResult, RooflineRunner
from repro.vm import ExecutionEngine, Memory
from repro.workloads.sqlite3_like import instruction_factor_for
from repro.workloads.synthetic import SyntheticWorkload, TraceExecutor

from repro.api.spec import ProfileSpec


@runtime_checkable
class Workload(Protocol):
    """What a :class:`repro.api.Session` needs from a profilable workload."""

    #: Registry/display name.
    name: str
    #: One-line description shown by ``miniperf workloads``.
    description: str
    #: ``"synthetic"`` (trace replay) or ``"kernel"`` (compiled source).
    kind: str

    def executable(self, machine: Machine, task: Task,
                   spec: ProfileSpec) -> Callable[[], None]:
        """Build a zero-argument callable that runs the workload once.

        The callable drives *machine* (retiring machine ops against its core
        timing model, caches and PMU) with *task* as the profiled process, so
        samples carry real call chains.
        """
        ...

    @property
    def supports_roofline(self) -> bool:
        """Whether :meth:`roofline` is available for this workload."""
        ...

    def roofline(self, descriptor: PlatformDescriptor,
                 spec: ProfileSpec) -> KernelRooflineResult:
        """Run the two-phase compiler-driven roofline flow for this workload."""
        ...


@dataclass
class SyntheticTraceWorkload:
    """A synthetic call-tree trace replay (see :mod:`repro.workloads.synthetic`).

    ``instruction_factor`` overrides the per-ISA instruction scaling; when it
    is ``None`` and ``auto_instruction_factor`` is set, the factor is derived
    from the target architecture (the paper's x86 build of sqlite3 retires
    ~1.85x more instructions than the RISC-V build), which is what keeps
    cross-platform comparisons honest without per-call bookkeeping.
    """

    tree: SyntheticWorkload
    description: str = ""
    instruction_factor: Optional[float] = None
    auto_instruction_factor: bool = True
    kind: str = field(default="synthetic", init=False)

    @property
    def name(self) -> str:
        return self.tree.name

    def _factor_for(self, descriptor: PlatformDescriptor) -> Optional[float]:
        if self.instruction_factor is not None:
            return self.instruction_factor
        if self.auto_instruction_factor:
            return instruction_factor_for(descriptor.arch)
        return None

    def executable(self, machine: Machine, task: Task,
                   spec: ProfileSpec) -> Callable[[], None]:
        executor = TraceExecutor(
            machine, task, seed=spec.seed,
            instruction_factor=self._factor_for(machine.descriptor),
            batched=spec.fast_dispatch,
        )
        return lambda: executor.run(self.tree, invocations=spec.invocations)

    @property
    def supports_roofline(self) -> bool:
        return False

    def roofline(self, descriptor: PlatformDescriptor,
                 spec: ProfileSpec) -> KernelRooflineResult:
        raise NotImplementedError(
            f"workload {self.name!r} is a synthetic trace replay; the "
            "compiler-driven roofline flow needs a compiled kernel"
        )


@dataclass
class CompiledKernelWorkload:
    """A KernelC kernel compiled and executed on the fast-dispatch VM engine.

    For PMU analyses (stat/hotspots/flame graphs) the kernel is compiled
    through the standard optimisation pipeline (no instrumentation) and run
    on the execution engine against the session's machine, so samples carry
    the kernel's call chain.  For the roofline analysis the two-phase
    instrumented flow of :class:`repro.roofline.runner.RooflineRunner` runs
    instead, on fresh machines, exactly as the paper describes.
    """

    name: str
    source: str
    function: str
    args_builder: ArgsBuilder
    filename: str = "kernel.c"
    description: str = ""
    kind: str = field(default="kernel", init=False)

    def executable(self, machine: Machine, task: Task,
                   spec: ProfileSpec) -> Callable[[], None]:
        # Compiled modules are memoized per (source, lowering configuration)
        # and the platform target lowering is shared process-wide, so
        # repeated runs -- and every hart of an SMP machine -- reuse one
        # module and one warm lowering cache.
        descriptor = machine.descriptor
        module = compile_source_cached(self.source, self.filename, descriptor,
                                       spec.enable_vectorizer)
        target = target_for_platform(descriptor)

        def run() -> None:
            for _ in range(max(1, spec.invocations)):
                memory = Memory()
                args = list(self.args_builder(memory))
                engine = ExecutionEngine(module, machine, target, task=task,
                                         memory=memory,
                                         fast_dispatch=spec.fast_dispatch)
                engine.run(self.function, args)

        return run

    @property
    def supports_roofline(self) -> bool:
        return True

    def roofline(self, descriptor: PlatformDescriptor,
                 spec: ProfileSpec) -> KernelRooflineResult:
        runner = RooflineRunner(
            descriptor,
            enable_vectorizer=spec.enable_vectorizer,
            vendor_driver=spec.vendor_driver is not False,
            fast_dispatch=spec.fast_dispatch,
        )
        return runner.run_source(self.source, self.function, self.args_builder,
                                 repeats=spec.repeats, filename=self.filename)
