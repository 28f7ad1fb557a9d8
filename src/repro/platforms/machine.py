"""The integrated machine: core + caches + CSRs + PMU + SBI + kernel.

One :class:`Machine` instance is a single profiled board.  Execution engines
feed it retired :class:`~repro.isa.machine_ops.MachineOp` streams; miniperf
opens perf events against its kernel; the roofline runner asks it for
theoretical roofs.  Everything the paper's Figure 1 stacks vertically lives
behind this object.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cpu.branch import GsharePredictor
from repro.cpu.cache import CacheHierarchy
from repro.cpu.core import CoreTimingModel, InOrderCore, OutOfOrderCore
from repro.cpu.events import EventBus, HwEvent
from repro.isa.csr import CsrFile
from repro.isa.machine_ops import MachineOp
from repro.isa.privilege import PrivilegeMode
from repro.kernel.drivers import PmuDriver, RiscvSbiPmuDriver, X86PmuDriver
from repro.kernel.perf_event import PerfEventSubsystem
from repro.kernel.task import Task
from repro.platforms.descriptors import PlatformDescriptor
from repro.pmu.unit import PmuUnit
from repro.sbi.firmware import OpenSbi
from repro.sbi.pmu_ext import SbiPmuExtension


class Machine:
    """A fully assembled platform model.

    Parameters
    ----------
    descriptor:
        Which platform to build.
    vendor_driver:
        Whether vendor kernel patches are installed.  Matters for platforms
        without upstream Linux support (the X60's mode-cycle events are only
        visible with the vendor driver); defaults to True because that is the
        configuration the paper measures.
    hierarchy:
        Memory hierarchy to use instead of building an all-private
        :class:`CacheHierarchy` from the descriptor.  The SMP machine
        (:class:`repro.smp.MultiHartMachine`) passes its hart's view here:
        a :class:`CacheHierarchy` built with ``shared=`` levels and the
        memory ``controller=``.  Standalone machines leave it None.
    hart_id:
        Which hart this machine models.  Standalone machines are hart 0;
        inside a multi-hart machine each hart gets its own id, which tags
        perf samples (the ``cpu`` field) and the firmware/driver instances.
    """

    def __init__(self, descriptor: PlatformDescriptor, vendor_driver: bool = True,
                 hierarchy=None, hart_id: int = 0):
        self.descriptor = descriptor
        self.hart_id = hart_id
        self.bus = EventBus()
        self.hierarchy = (hierarchy if hierarchy is not None
                          else CacheHierarchy(descriptor.caches, descriptor.memory))
        self.predictor = GsharePredictor()
        #: The task currently scheduled on this hart (set by the SMP
        #: scheduler around each quantum).  When set, sampling interrupts
        #: attribute to it instead of the perf event's opening task, the way
        #: system-wide (cpu-bound) perf events sample whatever runs on the CPU.
        self.current_task: Optional[Task] = None

        self.pmu: PmuUnit = descriptor.pmu_class(self.bus)
        core_cls = OutOfOrderCore if descriptor.core.out_of_order else InOrderCore
        self.core: CoreTimingModel = core_cls(
            descriptor.core, self.hierarchy, self.bus, self.predictor, self.pmu
        )

        self.csr = CsrFile(descriptor.identity)

        self.sbi: Optional[OpenSbi] = None
        if descriptor.is_riscv:
            self.sbi = OpenSbi(self.csr, hart_id=hart_id)
            self.sbi.register_extension(
                SbiPmuExtension(self.csr, self.pmu, hart_id=hart_id))
            self.driver: PmuDriver = RiscvSbiPmuDriver(
                self.sbi, self.csr, self.pmu, vendor_driver=vendor_driver,
                hart_id=hart_id,
            )
        else:
            self.driver = X86PmuDriver(self.pmu, hart_id=hart_id)

        self.perf = PerfEventSubsystem(
            self.driver, clock=self.clock, cpu=hart_id,
            current_task=lambda: self.current_task,
        )
        self._tasks: Dict[int, Task] = {}
        #: Optional ``(address, size_bytes, is_store) -> None`` observer of
        #: every addressed memory op this hart retires, on both the per-op
        #: and the batched path.  The static race detector's dynamic
        #: validator installs one per hart to record actual per-thread access
        #: sets; ``None`` (the default) costs one predicate per execute call.
        self._access_recorder = None

    # -- identity & capability ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def frequency_hz(self) -> float:
        return self.descriptor.core.frequency_hz

    def clock(self) -> int:
        """Current machine time in core cycles (the perf_event time source)."""
        return self.core.total_cycles

    def theoretical_peak_gflops(self) -> float:
        return self.descriptor.theoretical_peak_gflops()

    def theoretical_dram_bandwidth_gbps(self) -> float:
        return self.descriptor.theoretical_dram_bandwidth_gbps()

    # -- task management -------------------------------------------------------------

    def create_task(self, name: str) -> Task:
        task = Task(name)
        self._tasks[task.pid] = task
        return task

    def task(self, pid: int) -> Task:
        return self._tasks[pid]

    # -- execution -------------------------------------------------------------------

    def execute(self, op: MachineOp, task: Optional[Task] = None) -> None:
        """Retire one machine op on this machine's core.

        When *task* is given its program counter is updated first so any
        sampling interrupt raised by this op attributes the sample correctly.
        """
        if task is not None and op.pc:
            task.set_pc(op.pc)
        if self._access_recorder is not None and op.is_memory and op.address is not None:
            self._access_recorder(op.address, op.size_bytes, op.is_store)
        self.core.retire(op)

    def execute_batch(self, ops: Sequence[MachineOp],
                      task: Optional[Task] = None,
                      mem_accesses: Sequence = ()) -> None:
        """Retire a chunk of machine ops (the engine's batched accounting).

        *mem_accesses* carries the batch's addressed accesses as ``(address,
        size_bytes, is_store)`` tuples, one per memory op with an address and
        a positive size, in stream order.  It is required whenever *ops* has
        such ops: every batch resolves its memory in one
        :meth:`~repro.cpu.cache.CacheHierarchy.access_lines` call, and
        :meth:`~repro.cpu.core.CoreTimingModel.retire_batch` consumes the
        results.  ``retire_batch`` coalesces event publication and retires
        each op that reaches an armed overflow of this hart's PMU as
        :meth:`execute` would: counters, bus totals and samples are
        bit-identical to per-op retirement.
        """
        if not ops:
            return
        if self._access_recorder is not None:
            record = self._access_recorder
            for op in ops:
                if op.is_memory and op.address is not None:
                    record(op.address, op.size_bytes, op.is_store)
        mem_results = (self.hierarchy.access_lines(mem_accesses)
                       if mem_accesses else ())
        self.core.retire_batch(ops, mem_results, task)

    def set_access_recorder(self, recorder) -> None:
        """Install (or clear, with ``None``) the memory-access observer.

        *recorder* is called as ``recorder(address, size_bytes, is_store)``
        for every addressed memory op retired on this hart.  Recording is
        observation only -- timing, counters and samples are unaffected.
        """
        self._access_recorder = recorder

    def set_privilege_mode(self, mode: PrivilegeMode) -> None:
        self.core.set_privilege_mode(mode)

    # -- convenience metrics ------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.core.total_cycles

    @property
    def instructions(self) -> int:
        return self.core.retired_instructions

    @property
    def ipc(self) -> float:
        return self.core.ipc

    def elapsed_seconds(self) -> float:
        return self.core.elapsed_seconds()

    def event_totals(self) -> Dict[HwEvent, int]:
        """Raw event totals observed on the bus (PMU-independent ground truth)."""
        return self.bus.totals.as_dict()

    def stats(self) -> Dict[str, object]:
        return {
            "platform": self.name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": round(self.ipc, 4),
            "elapsed_seconds": self.elapsed_seconds(),
            "cache": self.hierarchy.stats(),
            "branch_miss_rate": round(self.predictor.miss_rate, 4),
        }

    def __repr__(self) -> str:
        return f"Machine({self.name!r}, cycles={self.cycles}, ipc={self.ipc:.2f})"
