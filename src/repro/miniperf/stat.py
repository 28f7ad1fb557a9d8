"""``miniperf stat``: counting-mode measurement of a workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.cpu.events import HwEvent
from repro.kernel.perf_event import PerfEventAttr, PerfEventOpenError, ReadFormat
from repro.kernel.task import Task
from repro.miniperf.correction import CorrectedCount, scale_multiplexed
from repro.platforms.machine import Machine
from repro.telemetry import span as _span


@dataclass
class StatResult:
    """Counts collected by one ``miniperf stat`` run."""

    platform: str
    counts: Dict[HwEvent, CorrectedCount] = field(default_factory=dict)
    unsupported: List[HwEvent] = field(default_factory=list)

    def count(self, event: HwEvent) -> float:
        corrected = self.counts.get(event)
        return corrected.scaled if corrected else 0.0

    @property
    def ipc(self) -> float:
        cycles = self.count(HwEvent.CYCLES)
        instructions = self.count(HwEvent.INSTRUCTIONS)
        return instructions / cycles if cycles else 0.0

    def as_table(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for event, corrected in self.counts.items():
            rows.append({
                "event": event.value,
                "count": int(corrected.scaled),
                "raw": corrected.raw,
                "running": f"{corrected.multiplex_fraction * 100:.1f}%",
            })
        return rows

    def to_dict(self) -> Dict[str, object]:
        """Machine-consumable counts (``--json`` on the CLI)."""
        return {
            "platform": self.platform,
            "counts": self.as_table(),
            "ipc": round(self.ipc, 4),
            "unsupported": [event.value for event in self.unsupported],
        }

    def format(self) -> str:
        lines = [f"Performance counter stats for {self.platform}:", ""]
        for row in self.as_table():
            lines.append(f"  {row['count']:>16,}  {row['event']:<24} ({row['running']})")
        if self.counts.get(HwEvent.CYCLES) and self.counts.get(HwEvent.INSTRUCTIONS):
            lines.append("")
            lines.append(f"  IPC: {self.ipc:.2f}")
        for event in self.unsupported:
            lines.append(f"  <not supported>  {event.value}")
        return "\n".join(lines)


DEFAULT_STAT_EVENTS = (
    HwEvent.CYCLES,
    HwEvent.INSTRUCTIONS,
    HwEvent.CACHE_REFERENCES,
    HwEvent.CACHE_MISSES,
    HwEvent.BRANCH_INSTRUCTIONS,
    HwEvent.BRANCH_MISSES,
)


def miniperf_stat(machine: Machine, task: Task, workload: Callable[[], None],
                  events: Sequence[HwEvent] = DEFAULT_STAT_EVENTS) -> StatResult:
    """Count *events* while running *workload* on *machine*.

    Events the platform cannot count are reported as unsupported instead of
    failing the whole run (matching ``perf stat`` behaviour).  When more
    events are requested than the PMU has counters, they rotate only if the
    workload itself calls ``machine.perf.rotate``.
    """
    result = StatResult(platform=machine.name)
    fds: Dict[HwEvent, int] = {}
    for event in events:
        try:
            fds[event] = machine.perf.perf_event_open(
                PerfEventAttr(
                    event=event,
                    read_format=frozenset({ReadFormat.TOTAL_TIME_ENABLED,
                                           ReadFormat.TOTAL_TIME_RUNNING}),
                ),
                task,
            )
        except PerfEventOpenError:
            result.unsupported.append(event)

    for fd in fds.values():
        machine.perf.enable(fd)
    workload()
    for fd in fds.values():
        machine.perf.disable(fd)

    with _span("analyses", analysis="stat", events=len(fds)):
        for event, fd in fds.items():
            read = machine.perf.read(fd)
            result.counts[event] = scale_multiplexed(event.value, read)
            machine.perf.close(fd)
    return result
