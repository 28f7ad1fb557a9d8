"""Run-boundary collection: fold hot-path tallies into the registry.

The hot paths never see the registry.  They keep plain integer attributes
-- ``Cache.mru_hits`` and friends, the compile-cache module tallies -- and a
:class:`RunCollector` snapshots them before a run, diffs them after, and
increments labeled registry series with the difference.  Machines are
pooled and reused across runs, so absolute values are meaningless; the
before/after delta is what belongs to *this* run.

:func:`capture` is the cross-process shipping helper: pool workers and
``run_many`` processes wrap their work in it and send the resulting
metrics delta (and span wire dicts) back to the parent, which merges them
-- merging is only ever done across a process boundary.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def _fast_path_hits(machine) -> Dict[str, int]:
    """Per-level same-line short-circuit tallies of a (multi-hart) machine."""
    if getattr(machine, "harts", None) is not None:
        return machine.memory_system.fast_path_hits()
    return machine.hierarchy.fast_path_hits()


class RunCollector:
    """Collects one run's counter deltas into the metrics registry."""

    def __init__(self, platform: str, workload: str, registry=None):
        if registry is None:
            from repro import telemetry as _telemetry
            registry = _telemetry.REGISTRY
        self.registry = registry
        self.platform = platform
        self.workload = workload
        self._machine = None
        self._before: Optional[Dict[str, int]] = None
        self._compile_before: Optional[Dict[str, int]] = None

    def start(self, machine) -> "RunCollector":
        from repro.compiler import cache as compiler_cache
        self._machine = machine
        self._before = _fast_path_hits(machine)
        self._compile_before = compiler_cache.cache_stats()
        return self

    def finish(self, schedule=None,
               timings: Optional[Dict[str, float]] = None) -> None:
        if self._machine is None or self._before is None:
            return
        from repro.compiler import cache as compiler_cache
        registry = self.registry
        after = _fast_path_hits(self._machine)
        before = self._before

        fast_cache = registry.counter(
            "repro_fast_cache_short_circuits_total",
            "Cache accesses served by the same-line short-circuit")
        for level, count in sorted(after.items()):
            diff = count - before.get(level, 0)
            if diff:
                fast_cache.inc(diff, level=level)

        compile_after = compiler_cache.cache_stats()
        compile_cache = registry.counter(
            "repro_compile_cache_total",
            "compile_source_cached lookups by outcome")
        for key, outcome in (("hits", "hit"), ("misses", "miss")):
            diff = compile_after[key] - self._compile_before[key]
            if diff:
                compile_cache.inc(diff, outcome=outcome)

        if schedule is not None:
            quanta = registry.counter(
                "repro_scheduler_quanta_total",
                "Scheduler quanta executed per hart")
            for hart, count in sorted(schedule.quanta_per_hart().items()):
                if count:
                    quanta.inc(count, hart=hart)

        registry.counter(
            "repro_runs_total",
            "Profiling runs completed").inc(
                platform=self.platform, workload=self.workload)

        if timings:
            phases = registry.histogram(
                "repro_run_phase_seconds",
                "Wall-clock seconds per run phase (diagnostic only)")
            for phase in sorted(timings):
                phases.observe(timings[phase], phase=phase)

        self._machine = None
        self._before = None


@dataclass
class Captured:
    """What one :func:`capture` window observed."""

    metrics: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def to_wire(self) -> dict:
        return dict(vars(self))


@contextmanager
def capture(spans: bool = False):
    """Record the registry delta (and optionally spans) of a code block.

    Yields a :class:`Captured` whose ``metrics``/``spans`` fields are
    filled in when the block exits.  The parent process merges the
    result with ``REGISTRY.merge(captured.metrics)`` /
    ``TRACER.attach_wire(captured.spans)`` -- across a process boundary
    only; merging in the producing process double-counts.
    """
    from repro import telemetry as _telemetry
    registry, tracer = _telemetry.REGISTRY, _telemetry.TRACER
    before = registry.snapshot()
    was_enabled = tracer.enabled
    mark = len(tracer.roots)
    if spans and not was_enabled:
        tracer.enable()
    box = Captured()
    try:
        yield box
    finally:
        if spans and not was_enabled:
            tracer.disable()
        box.metrics = registry.snapshot_delta(before)
        if spans:
            box.spans = [span.to_wire() for span in tracer.roots[mark:]]
            if not was_enabled:
                del tracer.roots[mark:]
