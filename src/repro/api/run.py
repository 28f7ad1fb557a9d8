"""Uniform run results: everything one profiling session run produced.

A :class:`Run` is the single result type for every workload kind and every
analysis mix -- counting stats, sampling recordings, hotspot tables, flame
graphs and rooflines all hang off the same object, with uniform exporters:
``to_dict``/``to_json`` for machine consumption, :meth:`report` for a text
report, :meth:`flamegraph_svg` and :meth:`roofline_svg` for figures.

:class:`Comparison` holds the side-by-side result of
:meth:`repro.api.Session.compare`: one Run per platform plus quantitative
flame-graph diffs against the first (baseline) platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.spec import ProfileSpec
from repro.cpu.events import HwEvent
from repro.flamegraph import FlameNode, diff_flame_graphs, FrameDiff
from repro.flamegraph.render_svg import render_svg
from repro.flamegraph.render_text import render_text
from repro.miniperf.record import RecordingResult
from repro.miniperf.report import HotspotReport
from repro.miniperf.stat import StatResult
from repro.roofline.model import RooflineModel
from repro.roofline.plot import render_ascii_roofline, render_svg_roofline
from repro.roofline.runner import KernelRooflineResult


def strip_timings(payload):
    """Drop every ``timings`` key from a JSON-shaped payload, recursively.

    Wall-clock phase timings are the one intentionally non-deterministic
    field a Run exports.  This is the canonical normalizer: the service
    wire format, :meth:`Run.deterministic_dict` and the golden suite all
    strip through it, so they can never disagree about what "deterministic
    export" means.
    """
    if isinstance(payload, dict):
        return {key: strip_timings(value) for key, value in payload.items()
                if key != "timings"}
    if isinstance(payload, list):
        return [strip_timings(item) for item in payload]
    return payload


@dataclass
class Run:
    """The uniform result of one ``session.run(workload, spec)``."""

    platform: str
    workload: str
    spec: ProfileSpec
    cpu_description: str = ""
    #: Hart count of the run; SMP runs (cpus > 1) hold SMP result types
    #: (:class:`repro.smp.SmpStatResult` / :class:`repro.smp.SmpRecordingResult`)
    #: in :attr:`stat`/:attr:`recording` -- same exporter surface, plus
    #: per-hart breakdowns.
    cpus: int = 1
    #: The executed schedule of an SMP run (None on single-hart runs).
    schedule: Optional[object] = None
    stat: Optional[StatResult] = None
    recording: Optional[RecordingResult] = None
    hotspots: Optional[HotspotReport] = None
    flame_cycles: Optional[FlameNode] = None
    flame_instructions: Optional[FlameNode] = None
    roofline: Optional[KernelRooflineResult] = None
    #: Analyses that could not be produced, keyed by analysis name.  A part
    #: that cannot sample (the SiFive U74) still yields a Run: its counting
    #: stats are present and ``errors["sampling"]`` explains what is missing.
    errors: Dict[str, str] = field(default_factory=dict)
    #: The exceptions behind :attr:`errors`, for callers that need to re-raise
    #: them; not part of the dict/JSON export.
    failures: Dict[str, BaseException] = field(default_factory=dict, repr=False)
    #: Wall-clock phase timings in seconds (``compile`` -- building the
    #: workload executable, including cached compilation; ``execute`` -- the
    #: profiled runs themselves; ``analyses`` -- hotspots/flame graphs/
    #: roofline derivation).  Exported under a ``timings`` key; golden and
    #: differential comparisons must exclude it (it is the one
    #: non-deterministic field a Run carries).
    timings: Dict[str, float] = field(default_factory=dict)

    # -- accessors ----------------------------------------------------------------------

    def flame(self, metric: str = "cycles") -> Optional[FlameNode]:
        if metric == "instructions":
            return self.flame_instructions
        if metric == "cycles":
            return self.flame_cycles
        raise ValueError(
            f"unknown flame-graph metric {metric!r}; "
            "expected 'cycles' or 'instructions'"
        )

    def roofline_model(self) -> RooflineModel:
        if self.roofline is None:
            raise ValueError(f"run of {self.workload!r} has no roofline analysis")
        model = self.roofline.model()
        model.add_point(self.roofline.point_for_kernel())
        return model

    # -- exporters ----------------------------------------------------------------------

    def report(self, width: int = 96, hotspot_rows: int = 10) -> str:
        """The full text report (the paper's combined PMU + compiler view)."""
        sections: List[str] = []
        header = f"== {self.workload} on {self.platform} =="
        sections.append(header)
        if self.cpu_description:
            sections.append(self.cpu_description)
        if self.stat is not None:
            sections.append(self.stat.format())
        if self.recording is not None:
            sections.append(self.recording.describe())
        if self.hotspots is not None:
            sections.append(self.hotspots.format(hotspot_rows))
        if self.flame_cycles is not None:
            sections.append("Flame graph (cycles):")
            sections.append(render_text(self.flame_cycles, width=width))
        if self.roofline is not None:
            sections.append(render_ascii_roofline(self.roofline.model()))
            sections.append(
                f"kernel: {self.roofline.kernel_gflops:.2f} GFLOP/s at AI "
                f"{self.roofline.kernel_arithmetic_intensity:.3f} FLOP/byte"
            )
        for analysis, reason in self.errors.items():
            sections.append(f"[{analysis} unavailable: {reason}]")
        return "\n\n".join(s for s in sections if s)

    def to_dict(self) -> dict:
        """Machine-consumable summary of everything this run produced."""
        payload: dict = {
            "platform": self.platform,
            "workload": self.workload,
            "spec": self.spec.to_dict(),
            "cpu": self.cpu_description,
            "cpus": self.cpus,
        }
        if self.schedule is not None and hasattr(self.schedule, "to_dict"):
            payload["schedule"] = self.schedule.to_dict()
        if self.stat is not None:
            payload["stat"] = self.stat.to_dict()
        if self.recording is not None:
            payload["recording"] = self.recording.to_dict()
        if self.hotspots is not None:
            payload["hotspots"] = self.hotspots.to_dict()
        if self.flame_cycles is not None:
            payload["flame_cycles"] = _flame_to_dict(self.flame_cycles)
        if self.flame_instructions is not None:
            payload["flame_instructions"] = _flame_to_dict(self.flame_instructions)
        if self.roofline is not None:
            payload["roofline"] = self.roofline.to_dict()
        if self.errors:
            payload["errors"] = dict(self.errors)
        if self.timings:
            payload["timings"] = {phase: round(seconds, 6)
                                  for phase, seconds in self.timings.items()}
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def deterministic_dict(self) -> dict:
        """:meth:`to_dict` without wall-clock ``timings`` keys (recursive).

        Everything else a Run exports is byte-reproducible across processes
        and Python versions (the golden suite pins it); this is the export
        the service layer caches and serves -- two identical requests must
        produce identical bytes, so the one host-volatile field stays out.
        """
        return strip_timings(self.to_dict())

    def renderings(self) -> Dict[str, str]:
        """Pre-rendered text views of this run (stat table, recording
        summary, hotspot table).

        The service and the sweep engine ship these alongside
        :meth:`deterministic_dict` so remote/cached consumers print exactly
        what the in-process CLI would, without reconstructing result
        objects from dicts.  Deterministic like every other exporter.
        """
        renderings: Dict[str, str] = {}
        if self.stat is not None:
            renderings["stat"] = self.stat.format()
        if self.recording is not None:
            renderings["recording"] = self.recording.describe()
        if self.hotspots is not None:
            renderings["hotspots"] = self.hotspots.format()
        return renderings

    def format_timings(self) -> str:
        """One-line wall-clock phase report (the CLI's ``--timings`` output)."""
        if not self.timings:
            return f"{self.platform}: no phase timings recorded"
        parts = [f"{phase} {seconds * 1000:.1f}ms"
                 for phase, seconds in self.timings.items()]
        return f"{self.platform}: " + "  ".join(parts)

    def flamegraph_svg(self, metric: str = "cycles") -> str:
        flame = self.flame(metric)
        if flame is None:
            raise ValueError(f"run of {self.workload!r} has no {metric} flame graph")
        return render_svg(flame, title=f"{self.platform} ({metric})")

    def roofline_svg(self, **kwargs) -> str:
        return render_svg_roofline(self.roofline_model(), **kwargs)


def _flame_to_dict(root: FlameNode) -> dict:
    """A flame graph as a nested dict (name/value/children)."""

    def walk(node: FlameNode) -> dict:
        entry: dict = {"name": node.name, "value": node.value}
        if node.children:
            entry["children"] = [walk(child)
                                 for child in node.children.values()]
        return entry

    return walk(root)


@dataclass
class Comparison:
    """Side-by-side runs of one workload across several platforms.

    ``runs[0]`` is the baseline; ``flame_diffs[platform]`` quantifies, per
    function, how much wider its frames are on *platform* than on the
    baseline (the paper's "comparing two images" reading of Figure 3, made
    numeric via :func:`repro.flamegraph.diff_flame_graphs`).
    """

    workload: str
    spec: ProfileSpec
    runs: List[Run] = field(default_factory=list)
    flame_diffs: Dict[str, List[FrameDiff]] = field(default_factory=dict)

    @property
    def baseline(self) -> Run:
        return self.runs[0]

    def run_for(self, platform: str) -> Optional[Run]:
        for run in self.runs:
            if run.platform == platform:
                return run
        return None

    @classmethod
    def build(cls, workload: str, spec: ProfileSpec,
              runs: List[Run], minimum_fraction: float = 0.005) -> "Comparison":
        comparison = cls(workload=workload, spec=spec, runs=runs)
        baseline = runs[0]
        if baseline.flame_cycles is not None:
            for other in runs[1:]:
                if other.flame_cycles is None:
                    continue
                comparison.flame_diffs[other.platform] = diff_flame_graphs(
                    baseline.flame_cycles, other.flame_cycles,
                    minimum_fraction=minimum_fraction,
                )
        return comparison

    # -- exporters ----------------------------------------------------------------------

    def _summary_rows(self) -> List[dict]:
        rows = []
        for run in self.runs:
            row: dict = {"platform": run.platform}
            if run.recording is not None:
                row["samples"] = run.recording.sample_count
                row["ipc"] = round(run.recording.overall_ipc, 2)
                row["instructions"] = run.recording.total(HwEvent.INSTRUCTIONS)
            if run.stat is not None:
                row["ipc"] = round(run.stat.ipc, 2)
            if run.hotspots is not None and run.hotspots.rows:
                top = run.hotspots.rows[0]
                row["top_function"] = top.function
                row["top_percent"] = round(top.total_percent, 2)
            if run.roofline is not None:
                row["gflops"] = round(run.roofline.kernel_gflops, 3)
                row["arithmetic_intensity"] = round(
                    run.roofline.kernel_arithmetic_intensity, 3)
            if run.errors:
                row["errors"] = dict(run.errors)
            rows.append(row)
        return rows

    def report(self, top_diffs: int = 8) -> str:
        """A multi-platform text report with the flame-graph diff table."""
        sections: List[str] = [
            f"== comparison: {self.workload} across "
            f"{', '.join(run.platform for run in self.runs)} =="
        ]

        keys = ["platform", "samples", "ipc", "top_function", "top_percent",
                "gflops", "arithmetic_intensity"]
        rows = self._summary_rows()
        present = [k for k in keys if any(k in row for row in rows)]
        if present:
            widths = {k: max(len(k), max((len(str(row.get(k, ""))) for row in rows),
                                         default=0)) for k in present}
            lines = ["  ".join(k.ljust(widths[k]) for k in present)]
            lines.append("  ".join("-" * widths[k] for k in present))
            for row in rows:
                lines.append("  ".join(str(row.get(k, "")).ljust(widths[k])
                                       for k in present))
            sections.append("\n".join(lines))

        for platform, diffs in self.flame_diffs.items():
            lines = [f"flame-graph diff (self-time share): "
                     f"{self.baseline.platform} -> {platform}"]
            for diff in diffs[:top_diffs]:
                lines.append(
                    f"  {diff.function:<32} {diff.fraction_a * 100:>6.2f}% -> "
                    f"{diff.fraction_b * 100:>6.2f}%  ({diff.ratio:.2f}x)"
                )
            sections.append("\n".join(lines))

        for run in self.runs:
            if run.roofline is not None:
                sections.append(render_ascii_roofline(run.roofline.model()))

        for run in self.runs:
            for analysis, reason in run.errors.items():
                sections.append(f"[{run.platform}: {analysis} unavailable: {reason}]")
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "spec": self.spec.to_dict(),
            "platforms": [run.platform for run in self.runs],
            "summary": self._summary_rows(),
            "flame_diffs": {
                platform: [
                    {
                        "function": diff.function,
                        "baseline_fraction": round(diff.fraction_a, 6),
                        "fraction": round(diff.fraction_b, 6),
                        "ratio": (None if diff.ratio == float("inf")
                                  else round(diff.ratio, 4)),
                        "delta": round(diff.delta, 6),
                    }
                    for diff in diffs
                ]
                for platform, diffs in self.flame_diffs.items()
            },
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
