"""The multi-hart machine: N profiled harts over a shared memory system.

A :class:`MultiHartMachine` instantiates one full single-hart stack per hart
-- core timing model, private L1(s), CSR file, PMU unit, OpenSBI firmware
context, kernel PMU driver and perf_event subsystem, all hart-indexed -- on
top of one :class:`~repro.smp.memory.SharedMemorySystem` (shared LLC plus a
bandwidth-contended memory controller).  Each hart *is* a
:class:`~repro.platforms.machine.Machine`, so every existing consumer
(execution engines, miniperf, the roofline flow) can drive an individual
hart unchanged; the SMP machine adds the cross-hart pieces: aggregate
metrics, and system-wide (``perf stat -a``-style) event attachment with
cross-hart aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cpu.events import HwEvent
from repro.kernel.perf_event import (
    PerfEventAttr,
    PerfEventOpenError,
    PerfReadValue,
    ReadFormat,
)
from repro.kernel.task import Task
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.smp.memory import SharedMemorySystem


@dataclass
class SystemWideReadValue:
    """Cross-hart aggregation of one system-wide event read."""

    event: HwEvent
    #: Aggregate count over all harts.
    value: int
    #: Per-hart reads, keyed by hart id.
    per_cpu: Dict[int, PerfReadValue] = field(default_factory=dict)

    @property
    def scaled_value(self) -> float:
        return sum(read.scaled_value for read in self.per_cpu.values())

    def count_on(self, cpu: int) -> int:
        read = self.per_cpu.get(cpu)
        return read.value if read is not None else 0


class SystemWideEvent:
    """A ``cpu=-1``-style event: one perf event open on every hart.

    Real perf implements system-wide counting by opening one event per CPU
    and summing the reads; this handle does exactly that against the per-hart
    :class:`~repro.kernel.perf_event.PerfEventSubsystem` instances.  Samples
    recorded by each hart's subsystem carry that hart's ``cpu`` tag, so the
    merged stream keeps per-hart sub-streams apart.
    """

    def __init__(self, machine: "MultiHartMachine", attr: PerfEventAttr,
                 fds: List[Tuple[Machine, int]]):
        self.machine = machine
        self.attr = attr
        self._fds = fds
        self._closed = False

    @property
    def event(self) -> HwEvent:
        return self.attr.event

    def enable(self) -> None:
        for hart, fd in self._fds:
            hart.perf.enable(fd)

    def disable(self) -> None:
        for hart, fd in self._fds:
            hart.perf.disable(fd)

    def read(self) -> SystemWideReadValue:
        per_cpu: Dict[int, PerfReadValue] = {}
        total = 0
        for hart, fd in self._fds:
            read = hart.perf.read(fd)
            per_cpu[hart.hart_id] = read
            total += read.value
        return SystemWideReadValue(event=self.attr.event, value=total,
                                   per_cpu=per_cpu)

    def close(self) -> None:
        if self._closed:
            return
        for hart, fd in self._fds:
            hart.perf.close(fd)
        self._closed = True


def check_cpus(descriptor: PlatformDescriptor, cpus: int) -> None:
    """Raise ``ValueError`` unless *descriptor*'s board has *cpus* harts."""
    if cpus < 1:
        raise ValueError(f"cpus must be >= 1 (got {cpus})")
    if cpus > max(descriptor.harts, 1):
        raise ValueError(
            f"{descriptor.name} has {descriptor.harts} harts; "
            f"cannot build a {cpus}-hart machine"
        )


class MultiHartMachine:
    """N harts of one platform sharing an LLC and a memory controller.

    Parameters
    ----------
    descriptor:
        The platform to build.  ``descriptor.harts`` is the physical core
        count of the board; requesting more harts than that raises.
    cpus:
        How many harts to instantiate.
    vendor_driver:
        Propagated to every hart's kernel PMU driver.
    contention_per_hart / contention_window:
        Parameters of the DRAM bandwidth-contention model (see
        :class:`~repro.smp.memory.MemoryController`).
    """

    def __init__(self, descriptor: PlatformDescriptor, cpus: int,
                 vendor_driver: bool = True,
                 contention_per_hart: float = 0.5,
                 contention_window: int = 32):
        check_cpus(descriptor, cpus)
        self.descriptor = descriptor
        self.vendor_driver = vendor_driver
        self.memory_system = SharedMemorySystem(
            descriptor.caches, descriptor.memory,
            window=contention_window,
            contention_per_hart=contention_per_hart,
        )
        self.harts: List[Machine] = [
            Machine(
                descriptor,
                vendor_driver=vendor_driver,
                hierarchy=self.memory_system.hierarchy_for_hart(hart_id),
                hart_id=hart_id,
            )
            for hart_id in range(cpus)
        ]
        # No sampling coordination between harts: each hart's batched
        # retirement stops at its own PMU's overflows (retire_batch).
        self._swappers: Dict[int, Task] = {}

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def cpus(self) -> int:
        return len(self.harts)

    def __len__(self) -> int:
        return len(self.harts)

    def hart(self, hart_id: int) -> Machine:
        return self.harts[hart_id]

    def set_cache_fast_path(self, enabled: bool) -> None:
        """Toggle the same-line short-circuits on every hart's hierarchy
        (private levels and the shared LLC alike); bit-identical either way."""
        for hart in self.harts:
            hart.set_cache_fast_path(enabled)

    def create_task(self, name: str, hart_id: int = 0) -> Task:
        return self.harts[hart_id].create_task(name)

    def swapper_task(self, hart_id: int) -> Task:
        """The hart's idle task: the nominal owner of cpu-bound perf events.

        One per hart for the machine's lifetime (like pid 0 on a real
        system), so repeated system-wide attachments don't accumulate tasks.
        """
        task = self._swappers.get(hart_id)
        if task is None:
            task = self.harts[hart_id].create_task(f"swapper/{hart_id}")
            self._swappers[hart_id] = task
        return task

    # -- aggregate metrics -------------------------------------------------------

    @property
    def wall_cycles(self) -> int:
        """Elapsed machine time: the busiest hart's cycle count.

        Harts run concurrently, so system wall time is the maximum per-hart
        cycle count, not the sum.
        """
        return max(hart.cycles for hart in self.harts)

    @property
    def total_instructions(self) -> int:
        return sum(hart.instructions for hart in self.harts)

    @property
    def aggregate_ipc(self) -> float:
        """Aggregate throughput: total retired instructions per wall cycle."""
        wall = self.wall_cycles
        return self.total_instructions / wall if wall else 0.0

    def elapsed_seconds(self) -> float:
        return self.wall_cycles / self.descriptor.core.frequency_hz

    def event_totals(self) -> Dict[HwEvent, int]:
        """Bus ground-truth event totals summed across harts."""
        totals: Dict[HwEvent, int] = {}
        for hart in self.harts:
            for event, count in hart.event_totals().items():
                totals[event] = totals.get(event, 0) + count
        return totals

    def stats(self) -> Dict[str, object]:
        return {
            "platform": self.name,
            "cpus": self.cpus,
            "wall_cycles": self.wall_cycles,
            "total_instructions": self.total_instructions,
            "aggregate_ipc": round(self.aggregate_ipc, 4),
            "elapsed_seconds": self.elapsed_seconds(),
            "memory_system": self.memory_system.stats(),
            "harts": [hart.stats() for hart in self.harts],
        }

    # -- system-wide perf attachment ----------------------------------------------

    def open_system_wide(self, attr: PerfEventAttr,
                         cpu: int = -1) -> SystemWideEvent:
        """Open *attr* on every hart (``cpu=-1``) or one hart (``cpu=N``).

        Each per-hart open gets a per-hart "swapper" task as its nominal
        owner; while the scheduler runs, samples attribute to whatever task
        is current on the hart, matching system-wide perf semantics.  A
        failure on any hart closes the already-opened fds and re-raises, so
        a partially attached system-wide event never leaks.
        """
        targets = self.harts if cpu == -1 else [self.harts[cpu]]
        fds: List[Tuple[Machine, int]] = []
        try:
            for hart in targets:
                swapper = self.swapper_task(hart.hart_id)
                fds.append((hart, hart.perf.perf_event_open(attr, swapper)))
        except PerfEventOpenError:
            for hart, fd in fds:
                hart.perf.close(fd)
            raise
        return SystemWideEvent(self, attr, fds)

    def open_counting_events(self, events: List[HwEvent],
                             cpu: int = -1) -> Tuple[List[SystemWideEvent],
                                                     List[HwEvent]]:
        """Open counting-mode system-wide events; returns (opened, unsupported)."""
        opened: List[SystemWideEvent] = []
        unsupported: List[HwEvent] = []
        read_format = frozenset({ReadFormat.TOTAL_TIME_ENABLED,
                                 ReadFormat.TOTAL_TIME_RUNNING})
        for event in events:
            attr = PerfEventAttr(event=event, read_format=read_format)
            try:
                opened.append(self.open_system_wide(attr, cpu=cpu))
            except PerfEventOpenError:
                unsupported.append(event)
        return opened, unsupported

    def __repr__(self) -> str:
        return (
            f"MultiHartMachine({self.name!r}, cpus={self.cpus}, "
            f"wall_cycles={self.wall_cycles})"
        )
