"""System-wide miniperf over a multi-hart machine: ``stat -a`` and ``record -a``.

:func:`smp_stat` is ``miniperf stat`` with per-CPU counting: one counting
event per hart per requested event (how real perf implements ``-a``), the
deterministic round-robin scheduler driving the workload threads in between
enable and disable, and a result that keeps per-hart columns next to the
aggregate.  :func:`smp_record` is sampling mode: the platform's sampling
group plan (including the X60 group-leader workaround) is opened on *every*
hart, samples attribute to whatever thread the scheduler has running on the
overflowing hart, and the merged stream keeps per-hart sub-streams apart via
the sample ``cpu`` tag.

The module also provides the SMP variants of the derived analyses: hotspot
tables merged across harts, cpu-labelled merged flame graphs, and aggregate
roofline roofs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.events import HwEvent
from repro.flamegraph.model import FlameNode, build_flame_graph, merge_flame_graphs
from repro.kernel.ring_buffer import SampleRecord
from repro.miniperf.correction import scale_multiplexed
from repro.miniperf.cpuid import identify_machine
from repro.miniperf.groups import GroupPlan, plan_sampling_group
from repro.miniperf.record import RecordingResult
from repro.miniperf.report import HotspotReport, HotspotRow, build_hotspot_report
from repro.miniperf.stat import DEFAULT_STAT_EVENTS, StatResult
from repro.roofline.runner import KernelRooflineResult
from repro.kernel.perf_event import PerfEventOpenError
from repro.smp.machine import MultiHartMachine
from repro.smp.scheduler import ScheduleTrace, ThreadBody, run_threads


@dataclass
class SmpStatResult:
    """Counts from one system-wide ``stat`` run: per-hart columns + aggregate."""

    platform: str
    cpus: int
    #: One single-hart StatResult per hart, index == hart id.
    per_hart: List[StatResult] = field(default_factory=list)
    unsupported: List[HwEvent] = field(default_factory=list)
    schedule: Optional[ScheduleTrace] = None

    # -- aggregation ------------------------------------------------------------

    def count(self, event: HwEvent) -> float:
        """Aggregate (multiplex-scaled) count across all harts."""
        return sum(result.count(event) for result in self.per_hart)

    def count_on(self, cpu: int, event: HwEvent) -> float:
        return self.per_hart[cpu].count(event)

    @property
    def ipc(self) -> float:
        """Busy-cycle IPC: total instructions over total per-hart busy cycles.

        This is how hard each hart works while it runs -- distinct from
        :attr:`~repro.smp.machine.MultiHartMachine.aggregate_ipc`, which
        divides by *wall* cycles and therefore measures parallel throughput.
        """
        cycles = self.count(HwEvent.CYCLES)
        instructions = self.count(HwEvent.INSTRUCTIONS)
        return instructions / cycles if cycles else 0.0

    def events(self) -> List[HwEvent]:
        seen: List[HwEvent] = []
        for result in self.per_hart:
            for event in result.counts:
                if event not in seen:
                    seen.append(event)
        return seen

    # -- exporters ---------------------------------------------------------------

    def format(self) -> str:
        header = (f"Performance counter stats for {self.platform} "
                  f"(system-wide, {self.cpus} harts):")
        lines = [header, ""]
        columns = [f"cpu{cpu}" for cpu in range(self.cpus)] + ["total"]
        name_width = max([len("event")] +
                         [len(e.value) for e in self.events()] or [5])
        widths = {}
        rows: List[Tuple[str, List[str]]] = []
        for event in self.events():
            cells = [f"{int(self.count_on(cpu, event)):,}"
                     for cpu in range(self.cpus)]
            cells.append(f"{int(self.count(event)):,}")
            rows.append((event.value, cells))
        for index, column in enumerate(columns):
            widths[column] = max([len(column)] +
                                 [len(cells[index]) for _, cells in rows])
        lines.append("  " + "event".ljust(name_width) + "  " +
                     "  ".join(c.rjust(widths[c]) for c in columns))
        for name, cells in rows:
            lines.append("  " + name.ljust(name_width) + "  " +
                         "  ".join(cell.rjust(widths[column])
                                   for column, cell in zip(columns, cells)))
        if self.count(HwEvent.CYCLES) and self.count(HwEvent.INSTRUCTIONS):
            lines.append("")
            lines.append("  IPC (instructions per busy cycle, all harts): "
                         f"{self.ipc:.2f}")
        for event in self.unsupported:
            lines.append(f"  <not supported>  {event.value}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "platform": self.platform,
            "cpus": self.cpus,
            "per_hart": [result.to_dict() for result in self.per_hart],
            "aggregate": {event.value: int(self.count(event))
                          for event in self.events()},
            "ipc": round(self.ipc, 4),
            "unsupported": [event.value for event in self.unsupported],
        }
        if self.schedule is not None:
            payload["schedule"] = self.schedule.to_dict()
        return payload


def smp_stat(machine: MultiHartMachine,
             bodies: Sequence[Tuple[str, ThreadBody]],
             events: Sequence[HwEvent] = DEFAULT_STAT_EVENTS) -> SmpStatResult:
    """Count *events* on every hart while the scheduler runs *bodies*.

    No sampling counter is armed, so each quantum's machine ops retire
    through :meth:`~repro.platforms.machine.Machine.execute_batch` with one
    event-bus pulse per event per chunk; the per-hart counters read here
    (and their cross-hart aggregates) are bit-identical to per-op retirement.
    """
    if not bodies:
        raise ValueError("smp_stat needs at least one thread body")
    opened, unsupported = machine.open_counting_events(list(events), cpu=-1)
    result = SmpStatResult(platform=machine.name, cpus=machine.cpus,
                           per_hart=[StatResult(platform=machine.name)
                                     for _ in range(machine.cpus)],
                           unsupported=unsupported)
    for handle in opened:
        handle.enable()
    result.schedule = run_threads(machine, bodies)
    for handle in opened:
        handle.disable()
    for handle in opened:
        read = handle.read()
        for cpu, value in read.per_cpu.items():
            result.per_hart[cpu].counts[handle.event] = (
                scale_multiplexed(handle.event.value, value))
        handle.close()
    for per_hart in result.per_hart:
        per_hart.unsupported = list(unsupported)
    return result


@dataclass
class SmpRecordingResult:
    """Samples from one system-wide ``record`` run across all harts."""

    platform: str
    cpus: int
    plan: GroupPlan
    #: One single-hart recording per hart, index == hart id.
    per_hart: List[RecordingResult] = field(default_factory=list)
    #: All harts' samples merged, ordered by (time, cpu); each sample's
    #: ``cpu`` field says which hart took it.
    samples: List[SampleRecord] = field(default_factory=list)
    schedule: Optional[ScheduleTrace] = None

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def lost(self) -> int:
        return sum(recording.lost for recording in self.per_hart)

    def samples_on(self, cpu: int) -> List[SampleRecord]:
        return [sample for sample in self.samples if sample.cpu == cpu]

    def total(self, event: HwEvent) -> int:
        """Aggregate final count of *event* across all harts."""
        return sum(recording.total(event) for recording in self.per_hart)

    @property
    def overall_ipc(self) -> float:
        cycles = self.total(HwEvent.CYCLES)
        instructions = self.total(HwEvent.INSTRUCTIONS)
        return instructions / cycles if cycles else 0.0

    @property
    def final_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for recording in self.per_hart:
            for name, value in recording.final_counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def describe(self) -> str:
        per_hart = ", ".join(
            f"cpu{index}: {recording.sample_count}"
            for index, recording in enumerate(self.per_hart)
        )
        return (
            f"{self.platform} (system-wide, {self.cpus} harts): "
            f"{self.sample_count} samples ({per_hart}; {self.lost} lost), "
            f"plan: {self.plan.describe()}"
        )

    def to_dict(self, include_samples: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "platform": self.platform,
            "cpus": self.cpus,
            "sample_count": self.sample_count,
            "samples_per_hart": [recording.sample_count
                                 for recording in self.per_hart],
            "lost": self.lost,
            "overall_ipc": round(self.overall_ipc, 4),
            "final_counts": self.final_counts,
            "final_counts_per_hart": [dict(recording.final_counts)
                                      for recording in self.per_hart],
            "plan": {
                "leader": self.plan.leader_event.value,
                "members": [e.value for e in self.plan.member_events],
                "sample_period": self.plan.sample_period,
                "used_workaround": self.plan.used_workaround,
            },
        }
        if self.schedule is not None:
            payload["schedule"] = self.schedule.to_dict()
        if include_samples:
            payload["samples"] = [
                {
                    "cpu": sample.cpu,
                    "ip": sample.ip,
                    "time": sample.time,
                    "callchain": list(sample.callchain),
                    "group_values": dict(sample.group_values),
                }
                for sample in self.samples
            ]
        return payload

    # -- derived analyses --------------------------------------------------------

    def flame_graph(self, weight: str = "samples") -> FlameNode:
        """Merged flame graph; per-hart sub-graphs grafted under cpuN frames.

        Group readouts are cumulative *per hart*, so event-weighted graphs
        must be built per hart (delta streams do not interleave) and merged
        afterwards -- which is also what produces the per-hart frame labels.
        """
        named = {
            f"cpu{index}": build_flame_graph(recording.samples, weight=weight)
            for index, recording in enumerate(self.per_hart)
        }
        return merge_flame_graphs(named)

    def hotspots(self) -> HotspotReport:
        reports = [build_hotspot_report(recording)
                   for recording in self.per_hart]
        return merge_hotspot_reports(self.platform, reports,
                                     overall_ipc=self.overall_ipc)


def smp_record(machine: MultiHartMachine,
               bodies: Sequence[Tuple[str, ThreadBody]],
               events: Sequence[HwEvent] = (HwEvent.CYCLES, HwEvent.INSTRUCTIONS),
               sample_period: int = 50_000,
               callchain: bool = True) -> SmpRecordingResult:
    """Sample every hart while the scheduler runs *bodies*.

    The sampling group (with the X60 group-leader workaround where the
    identified CPU needs it) is opened once per hart; each hart's interrupt
    handler attributes samples to the thread currently scheduled there.
    Raises :class:`~repro.miniperf.groups.SamplingNotSupportedError` on parts
    that cannot sample at all (the U74), like the single-hart path.

    Each hart's batched retirement stops at every overflow of its own
    leader and retires the triggering op individually, so interrupts fire
    at the exact op and the merged sample stream is bit-identical whichever
    dispatch engine the thread bodies run.
    """
    if not bodies:
        raise ValueError("smp_record needs at least one thread body")
    cpu = identify_machine(machine.hart(0))
    plan = plan_sampling_group(cpu, list(events), sample_period)

    leader_fds: List[int] = []
    member_fds: List[List[int]] = []
    buffers = []
    for hart in machine.harts:
        swapper = machine.swapper_task(hart.hart_id)
        leader_fd = hart.perf.perf_event_open(plan.leader_attr(callchain), swapper)
        members: List[int] = []
        for attr in plan.member_attrs():
            try:
                members.append(
                    hart.perf.perf_event_open(attr, swapper, group_fd=leader_fd))
            except PerfEventOpenError:
                continue
        leader_fds.append(leader_fd)
        member_fds.append(members)
        buffers.append(hart.perf.mmap(leader_fd))

    for hart, leader_fd in zip(machine.harts, leader_fds):
        hart.perf.enable(leader_fd)
    schedule = run_threads(machine, bodies)
    for hart, leader_fd in zip(machine.harts, leader_fds):
        hart.perf.disable(leader_fd)

    per_hart: List[RecordingResult] = []
    for hart, leader_fd, members, buffer in zip(
            machine.harts, leader_fds, member_fds, buffers):
        final = hart.perf.read(leader_fd)
        per_hart.append(RecordingResult(
            platform=machine.name,
            plan=plan,
            samples=buffer.drain(),
            lost=buffer.lost,
            final_counts=dict(final.group),
        ))
        hart.perf.close(leader_fd)
        for fd in members:
            hart.perf.close(fd)

    merged = sorted(
        (sample for recording in per_hart for sample in recording.samples),
        key=lambda sample: (sample.time, sample.cpu),
    )
    return SmpRecordingResult(
        platform=machine.name,
        cpus=machine.cpus,
        plan=plan,
        per_hart=per_hart,
        samples=merged,
        schedule=schedule,
    )


def merge_hotspot_reports(platform: str, reports: Sequence[HotspotReport],
                          overall_ipc: Optional[float] = None) -> HotspotReport:
    """Merge per-hart hotspot tables into one system-wide table."""
    samples: Dict[str, int] = {}
    cycles: Dict[str, int] = {}
    instructions: Dict[str, int] = {}
    total_samples = 0
    for report in reports:
        total_samples += report.total_samples
        for row in report.rows:
            samples[row.function] = samples.get(row.function, 0) + row.samples
            cycles[row.function] = cycles.get(row.function, 0) + row.cycles
            instructions[row.function] = (
                instructions.get(row.function, 0) + row.instructions)
    rows = [
        HotspotRow(
            function=function,
            samples=count,
            total_percent=(100.0 * count / total_samples) if total_samples else 0.0,
            cycles=cycles.get(function, 0),
            instructions=instructions.get(function, 0),
        )
        for function, count in samples.items()
    ]
    rows.sort(key=lambda row: (-row.samples, row.function))
    if overall_ipc is None:
        total_cycles = sum(cycles.values())
        total_instructions = sum(instructions.values())
        overall_ipc = total_instructions / total_cycles if total_cycles else 0.0
    return HotspotReport(platform=f"{platform} (system-wide)", rows=rows,
                         total_samples=total_samples, overall_ipc=overall_ipc)


def aggregate_roofline(result: KernelRooflineResult, cpus: int,
                       shared_levels: Sequence[str] = ("DRAM",)
                       ) -> KernelRooflineResult:
    """Scale a single-hart roofline result to N-hart aggregate roofs.

    Compute scales with the hart count (each hart has its own FP datapath)
    and so do the private cache bandwidths; *shared* levels do not -- the
    memory controller and the shared LLC serve all harts together, which is
    exactly why SMP STREAM curves flatten.  ``shared_levels`` names the
    bandwidth roofs that stay put; the session passes DRAM plus the
    platform's last cache level, matching
    :class:`~repro.smp.memory.SharedMemorySystem`'s private/shared split.
    The measured kernel point is left untouched (it ran on one hart), so the
    plot shows the per-hart achievement against the aggregate ceilings.
    """
    if cpus <= 1:
        return result
    shared = set(shared_levels)
    bandwidth = {
        level: gbps if level in shared else gbps * cpus
        for level, gbps in result.roofs.bandwidth_gbps.items()
    }
    roofs = dataclasses.replace(
        result.roofs,
        peak_gflops=result.roofs.peak_gflops * cpus,
        bandwidth_gbps=bandwidth,
        source=f"{result.roofs.source}, aggregated over {cpus} harts",
    )
    return dataclasses.replace(result, roofs=roofs)
