"""Per-layer time attribution for the traced run, measured from outside.

:class:`LayerProfiler` replaces public functions of the ``repro`` layers
with thin wrappers that time each call.  A wrapper adds its call to one
accumulator per boundary -- calls, inclusive seconds, seconds spent in
directly nested boundaries, and an optional work count -- instead of
recording one span per call, so the hundreds of thousands of per-op
boundaries of a synthetic trace cost a few list operations each.

A boundary's self time is its inclusive time minus the time of the nested
boundaries it called.  Every timed boundary call happens inside the root
boundary, so the self times of all boundaries (the root's self time being
the unattributed remainder) add up to the root's inclusive time.

Generators are timed per resume: :meth:`LayerProfiler.resumes` wraps the
generator a function returns and times every ``next()`` on its own, which
is how the SMP scheduler's quanta of ``ExecutionEngine.run_yielding`` are
attributed to the ``vm`` layer instead of to whoever drives them.

:func:`install_repro` installs the boundaries on the ``repro`` classes.
Call it before any ``Session`` or ``Machine`` is built: some hot paths bind
methods once per call (``retire_batch`` binds ``bus.publish``), so objects
must see the wrapped class attributes from the start.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = "iteration"

# Accumulator slots.
CALLS, INCLUSIVE, NESTED, WORK = range(4)


class LayerProfiler:
    """Calls/inclusive/self accumulators per named boundary."""

    def __init__(self) -> None:
        self._slots: Dict[str, list] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        #: Free-form counters bumped by boundary probes.
        self.counts: Dict[str, int] = {}

    # -- accumulators -------------------------------------------------------------------

    def _slot(self, name: str) -> list:
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = [0, 0.0, 0.0, 0]
        return slot

    def reset(self) -> None:
        """Zero every accumulator in place (wrappers hold the slot lists)."""
        for slot in self._slots.values():
            slot[:] = [0, 0.0, 0.0, 0]
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> Dict[str, dict]:
        return {name: {"calls": slot[CALLS],
                       "inclusive_s": slot[INCLUSIVE],
                       "self_s": slot[INCLUSIVE] - slot[NESTED],
                       "work": slot[WORK]}
                for name, slot in sorted(self._slots.items())}

    # -- wrappers -----------------------------------------------------------------------

    def timed(self, fn: Callable, name: str,
              work: Optional[Callable] = None,
              probe: Optional[Callable] = None) -> Callable:
        """Wrap *fn* as a timed boundary.

        *work(args)* is read before and after each call and the difference
        added to the boundary's work count; *probe(args)* runs once per
        call, inside the boundary, to bump :attr:`counts`.
        """
        slot = self._slot(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            before = work(args) if work is not None else 0
            start = perf_counter()
            try:
                if probe is not None:
                    probe(args)
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                slot[CALLS] += 1
                slot[INCLUSIVE] += elapsed
                slot[NESTED] += frame[0]
                if work is not None:
                    slot[WORK] += work(args) - before
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def resumes(self, fn: Callable, name: str,
                work: Optional[Callable] = None) -> Callable:
        """Wrap a generator-returning *fn*; time every resume on its own."""
        slot = self._slot(name)
        stack = self._stack

        def drive(inner, args):
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    before = work(args) if work is not None else 0
                    start = perf_counter()
                    try:
                        next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        elapsed = perf_counter() - start
                        stack.pop()
                        slot[CALLS] += 1
                        slot[INCLUSIVE] += elapsed
                        slot[NESTED] += frame[0]
                        if work is not None:
                            slot[WORK] += work(args) - before
                        if stack:
                            stack[-1][0] += elapsed
                    yield
            finally:
                inner.close()

        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs), args)

        return wrapper

    def counted(self, fn: Callable, name: str,
                count: Optional[Callable] = None) -> Callable:
        """Wrap *fn* as an untimed boundary: calls, plus *count(result)*."""
        slot = self._slot(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            slot[CALLS] += 1
            if count is not None:
                slot[WORK] += count(result)
            return result

        return wrapper

    @contextmanager
    def root(self):
        """The root boundary: one benchmark iteration."""
        slot = self._slot(ROOT)
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            slot[CALLS] += 1
            slot[INCLUSIVE] += elapsed
            slot[NESTED] += frame[0]

    # -- installation -------------------------------------------------------------------

    def patch(self, owner, attr: str, kind: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module) with a *kind* wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, getattr(self, kind)(original, name, **options))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_repro(profiler: LayerProfiler) -> None:
    """Install the layer boundaries of the ``repro`` package.

    Boundary names are ``<package>.<what>``; the metric names in
    ``perfbench/README.md`` are derived from them.
    """
    import repro.api.session as session_module
    import repro.api.workload as workload_module
    import repro.roofline.runner as runner_module
    import repro.smp as smp_package
    import repro.workloads.parallel as parallel_module
    from repro.cpu.cache import FastPathHierarchy
    from repro.cpu.core import BlockDelta, CoreTimingModel
    from repro.cpu.events import EventBus
    from repro.kernel.perf_event import PerfEventSubsystem
    from repro.kernel.ring_buffer import RingBuffer
    from repro.miniperf.tool import Miniperf
    from repro.platforms.machine import Machine
    from repro.sbi.firmware import OpenSbi
    from repro.smp.scheduler import RoundRobinScheduler
    from repro.vm.engine import ExecutionEngine
    from repro.workloads.synthetic import TraceExecutor

    counts = profiler.counts
    counts.setdefault("platforms.batch_ops", 0)
    counts.setdefault("cpu.block_delta_ops", 0)

    def count_batch(args) -> None:
        ops = args[1]
        plain = delta_ops = 0
        for op in ops:
            if op.__class__ is BlockDelta:
                delta_ops += op.instructions
            else:
                plain += 1
        counts["platforms.batch_ops"] += plain + delta_ops
        counts["cpu.block_delta_ops"] += delta_ops

    def ir_executed(args) -> int:
        return args[0].stats.ir_instructions

    patch = profiler.patch
    patch(session_module.Session, "run", "timed", "api.session")
    patch(TraceExecutor, "run", "timed", "workloads.trace")
    patch(ExecutionEngine, "run", "timed", "vm.dispatch", work=ir_executed)
    patch(ExecutionEngine, "run_yielding", "resumes", "vm.dispatch",
          work=ir_executed)
    patch(Machine, "execute", "timed", "platforms.execute")
    patch(Machine, "execute_batch", "timed", "platforms.execute_batch",
          probe=count_batch)
    patch(CoreTimingModel, "retire", "timed", "cpu.retire")
    patch(CoreTimingModel, "retire_batch", "timed", "cpu.retire_batch")
    patch(FastPathHierarchy, "access_lines", "timed", "cpu.access_lines")
    patch(EventBus, "publish", "timed", "pmu.publish")
    patch(EventBus, "publish_many", "timed", "pmu.publish_many")
    patch(OpenSbi, "ecall", "counted", "sbi.ecall")
    patch(RingBuffer, "write", "counted", "kernel.ring_write",
          count=lambda written: 0 if written else 1)
    patch(PerfEventSubsystem, "read", "counted", "kernel.perf_read")
    patch(Miniperf, "stat", "timed", "miniperf.stat")
    patch(Miniperf, "record", "timed", "miniperf.record")
    patch(Miniperf, "hotspots", "timed", "miniperf.hotspots")
    patch(session_module, "build_flame_graph", "timed", "flamegraph.build")
    patch(runner_module.RooflineRunner, "run_source", "timed", "roofline.run")
    patch(smp_package, "smp_stat", "timed", "smp.perf")
    patch(smp_package, "smp_record", "timed", "smp.perf")
    patch(RoundRobinScheduler, "run", "timed", "smp.scheduler")
    patch(workload_module, "compile_source_cached", "timed",
          "compiler.compile")
    patch(parallel_module, "compile_source_cached", "timed",
          "compiler.compile")
    patch(runner_module, "compile_source", "timed", "compiler.compile")
