"""Unified telemetry: a process-wide metrics registry and structured spans.

The profiler profiling itself.  Three pieces:

* :data:`REGISTRY` -- one :class:`~repro.telemetry.registry.MetricsRegistry`
  per process.  Hot paths keep plain integer tallies; run collectors fold
  them into labeled series at boundaries (the service daemon merges its
  workers' deltas here and counts its own series in its own instance).
* :data:`TRACER` -- one :class:`~repro.telemetry.spans.Tracer` per process,
  disabled by default.  ``with span("compile", workload=...):`` costs one
  attribute check while disabled.
* :mod:`~repro.telemetry.trace` -- exports: Chrome trace-event JSON
  (Perfetto-loadable), JSONL, and flame graphs through the repo's own
  ``flamegraph`` package.

Telemetry is observability only: nothing here may feed modelled time,
``deterministic_dict()`` exports, cache keys or goldens.
"""

from __future__ import annotations

from typing import Any

from .collect import Captured, RunCollector, capture
from .registry import (
    MetricsRegistry,
    escape_label_value,
    format_metric_value,
    prometheus_family_header,
    render_labels,
)
from .spans import Span, Tracer, clock

#: The process-wide metrics registry.
REGISTRY = MetricsRegistry()

#: The process-wide span tracer (disabled by default).
TRACER = Tracer()


def span(name: str, cat: str = "phase", **args: Any):
    """Open a span on the process tracer (no-op while disabled)."""
    return TRACER.span(name, cat, **args)


def record(name: str, cat: str = "event", wall_dur_us: int = 0,
           **args: Any):
    """Record a complete flat span on the process tracer."""
    return TRACER.record(name, cat, wall_dur_us, **args)


def enable() -> None:
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def enabled() -> bool:
    return TRACER.enabled


__all__ = [
    "Captured", "MetricsRegistry", "REGISTRY", "RunCollector", "Span",
    "TRACER", "Tracer", "capture", "clock", "disable", "enable", "enabled",
    "escape_label_value", "format_metric_value", "prometheus_family_header",
    "record", "render_labels", "span",
]
