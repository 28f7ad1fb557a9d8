"""The Miniperf facade: one object tying the tool's modes together.

``Miniperf(machine)`` identifies the CPU once and then exposes:

* :meth:`stat` -- counting mode;
* :meth:`record` -- sampling mode (with the group-leader workaround when the
  identified CPU needs it);
* :meth:`hotspots` -- Table-2 style hotspot tables from a recording;
* :meth:`flamegraph` -- folded-stack flame graphs from a recording;
* :meth:`roofline` -- the compiler-driven roofline flow (two-phase execution
  of an instrumented module), which is hardware-agnostic and therefore works
  identically on every platform model.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cpu.events import HwEvent
from repro.kernel.task import Task
from repro.miniperf.cpuid import CpuInfo, identify_machine
from repro.miniperf.record import RecordingResult, miniperf_record
from repro.miniperf.report import HotspotReport, build_hotspot_report
from repro.miniperf.stat import DEFAULT_STAT_EVENTS, StatResult, miniperf_stat
from repro.platforms.machine import Machine


class Miniperf:
    """User-facing entry point of the tool."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.cpu: CpuInfo = identify_machine(machine)

    # -- counting -------------------------------------------------------------------------

    def stat(self, workload: Callable[[], None], task: Optional[Task] = None,
             events: Sequence[HwEvent] = DEFAULT_STAT_EVENTS) -> StatResult:
        task = task or self.machine.create_task("miniperf-stat")
        return miniperf_stat(self.machine, task, workload, events)

    # -- sampling -------------------------------------------------------------------------

    def record(self, workload: Callable[[], None], task: Optional[Task] = None,
               events: Sequence[HwEvent] = (HwEvent.CYCLES, HwEvent.INSTRUCTIONS),
               sample_period: int = 50_000,
               callchain: bool = True) -> RecordingResult:
        task = task or self.machine.create_task("miniperf-record")
        return miniperf_record(
            self.machine, task, workload,
            events=events, sample_period=sample_period,
            callchain=callchain, cpu=self.cpu,
        )

    def hotspots(self, recording: RecordingResult) -> HotspotReport:
        return build_hotspot_report(recording)

    # -- flame graphs -----------------------------------------------------------------------

    def flamegraph(self, recording: RecordingResult, weight: str = "samples"):
        """Build a flame graph from a recording.

        ``weight`` selects what frame widths represent: ``"samples"`` (the
        classic cycle-proportional graph when cycles lead the sampling) or
        the name of a group event (e.g. ``"instructions"``) to weight each
        sample by that event's delta -- the instructions-retired flame graphs
        of the paper's Figure 3.
        """
        from repro.flamegraph import build_flame_graph
        return build_flame_graph(recording.samples, weight=weight)

    # -- roofline ---------------------------------------------------------------------------

    def roofline(self, source: str, function: str, args_builder,
                 repeats: int = 1, vector_width: Optional[int] = None):
        """Run the compiler-driven roofline flow for one kernel.

        See :class:`repro.roofline.runner.RooflineRunner` for the full
        parameter description; this is a convenience wrapper bound to this
        Miniperf instance's machine.
        """
        from repro.roofline.runner import RooflineRunner
        runner = RooflineRunner(self.machine.descriptor)
        return runner.run_source(source, function, args_builder,
                                 repeats=repeats, vector_width=vector_width)

    def describe(self) -> str:
        lines = [
            f"miniperf on {self.machine.name}",
            f"  identified as: {self.cpu.vendor} {self.cpu.core} "
            f"(mvendorid={self.cpu.identity.mvendorid:#x})",
            f"  direct sampling events: "
            f"{', '.join(e.value for e in self.cpu.direct_sampling_events) or 'none'}",
            f"  group-leader workaround: "
            f"{'required' if self.cpu.needs_group_leader_workaround else 'not needed'}",
        ]
        if self.cpu.notes:
            lines.append(f"  notes: {self.cpu.notes}")
        return "\n".join(lines)
