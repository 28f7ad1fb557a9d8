"""Hotspot reporting (the source of the paper's Table 2).

Samples are attributed to the function at the top of their call chain.  The
per-function share of samples estimates the share of CPU time ("Total %"),
and the group readouts attached to consecutive samples give per-function
deltas of cycles and instructions, from which per-function IPC and estimated
instruction counts are derived -- the three columns of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cpu.events import HwEvent
from repro.miniperf.record import RecordingResult


@dataclass
class HotspotRow:
    """One function's aggregated profile."""

    function: str
    samples: int
    total_percent: float
    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "samples": self.samples,
            "total_percent": round(self.total_percent, 2),
            "instructions": self.instructions,
            "ipc": round(self.ipc, 2),
        }


@dataclass
class HotspotReport:
    """The full hotspot table for one recording."""

    platform: str
    rows: List[HotspotRow] = field(default_factory=list)
    total_samples: int = 0
    overall_ipc: float = 0.0

    def top(self, count: int = 3) -> List[HotspotRow]:
        return self.rows[:count]

    def row_for(self, function: str) -> Optional[HotspotRow]:
        for row in self.rows:
            if row.function == function:
                return row
        return None

    def to_dict(self) -> Dict[str, object]:
        """Machine-consumable table (``--json`` on the CLI)."""
        return {
            "platform": self.platform,
            "total_samples": self.total_samples,
            "overall_ipc": round(self.overall_ipc, 4),
            "rows": [row.as_dict() for row in self.rows],
        }

    def format(self, count: int = 10) -> str:
        lines = [
            f"Hotspots for {self.platform} "
            f"({self.total_samples} samples, overall IPC {self.overall_ipc:.2f})",
            f"{'Function':<32} {'Total %':>8} {'Instructions':>16} {'IPC':>6}",
        ]
        for row in self.top(count):
            lines.append(
                f"{row.function:<32} {row.total_percent:>7.2f}% "
                f"{row.instructions:>16,} {row.ipc:>6.2f}"
            )
        return "\n".join(lines)


def build_hotspot_report(recording: RecordingResult,
                         cycles_event: HwEvent = HwEvent.CYCLES,
                         instructions_event: HwEvent = HwEvent.INSTRUCTIONS) -> HotspotReport:
    """Aggregate a recording into a hotspot table.

    Group readouts are cumulative at each sample, so the delta between
    consecutive samples is the work done since the previous sample; it is
    attributed to the function on top of the stack at sample time, the same
    approximation ``perf report`` makes.
    """
    samples = recording.samples
    report = HotspotReport(platform=recording.platform, total_samples=len(samples),
                           overall_ipc=recording.overall_ipc)
    if not samples:
        return report

    per_function_samples: Dict[str, int] = {}
    per_function_cycles: Dict[str, int] = {}
    per_function_instructions: Dict[str, int] = {}

    previous_cycles = 0
    previous_instructions = 0
    for sample in samples:
        function = sample.leaf_function
        per_function_samples[function] = per_function_samples.get(function, 0) + 1
        cycles_now = sample.group_values.get(cycles_event.value, 0)
        instructions_now = sample.group_values.get(instructions_event.value, 0)
        delta_cycles = max(0, cycles_now - previous_cycles)
        delta_instructions = max(0, instructions_now - previous_instructions)
        previous_cycles = max(previous_cycles, cycles_now)
        previous_instructions = max(previous_instructions, instructions_now)
        per_function_cycles[function] = per_function_cycles.get(function, 0) + delta_cycles
        per_function_instructions[function] = (
            per_function_instructions.get(function, 0) + delta_instructions
        )

    total = len(samples)
    rows = [
        HotspotRow(
            function=function,
            samples=count,
            total_percent=100.0 * count / total,
            cycles=per_function_cycles.get(function, 0),
            instructions=per_function_instructions.get(function, 0),
        )
        for function, count in per_function_samples.items()
    ]
    rows.sort(key=lambda row: row.samples, reverse=True)
    report.rows = rows
    return report
