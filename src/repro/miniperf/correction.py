"""PMU data correction.

Two corrections the paper's toolchain applies before reporting:

* **multiplex scaling** -- when more events are opened than hardware
  counters exist, each event only counts for ``time_running`` out of
  ``time_enabled``; the observed count is scaled by the ratio, exactly like
  ``perf stat`` does (the trailing ``(xx.x%)`` column).
* **group-readout reconciliation** -- on the X60 the sampling leader counts
  ``u_mode_cycle`` while the member counts ``cycles``; for user-space-only
  workloads the two should agree, and a large divergence flags samples taken
  while the kernel was running (which ``exclude_kernel`` could not filter on
  this part).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.kernel.perf_event import PerfReadValue
from repro.kernel.ring_buffer import SampleRecord


@dataclass
class CorrectedCount:
    """A count after multiplex correction."""

    event: str
    raw: int
    scaled: float
    time_enabled: int
    time_running: int

    @property
    def multiplex_fraction(self) -> float:
        """Fraction of enabled time the event was actually counting."""
        if self.time_enabled == 0:
            return 1.0
        return self.time_running / self.time_enabled


def scale_multiplexed(event_name: str, read: PerfReadValue) -> CorrectedCount:
    """Apply the standard ``time_enabled / time_running`` scaling."""
    if read.time_running == 0:
        scaled = 0.0
    else:
        scaled = read.value * (read.time_enabled / read.time_running)
    return CorrectedCount(
        event=event_name,
        raw=read.value,
        scaled=scaled,
        time_enabled=read.time_enabled,
        time_running=read.time_running,
    )


def reconcile_group_samples(samples: List[SampleRecord],
                            leader_event: str,
                            proxy_for: str = "cycles",
                            tolerance: float = 0.05) -> Dict[str, float]:
    """Check how well the workaround leader tracks the event it proxies.

    Returns summary statistics: the mean relative difference between the
    leader's count and the proxied event's count across samples, and the
    fraction of samples where the divergence exceeds *tolerance*.
    """
    diffs: List[float] = []
    for sample in samples:
        leader = sample.group_values.get(leader_event)
        proxied = sample.group_values.get(proxy_for)
        # A count of zero is a legitimate reading (e.g. a sample taken before
        # the proxied counter ticked); only a *missing* value drops the sample.
        if leader is None or proxied is None:
            continue
        denominator = max(leader, proxied)
        diffs.append(abs(leader - proxied) / denominator if denominator else 0.0)
    if not diffs:
        return {"samples": 0, "mean_divergence": 0.0, "outlier_fraction": 0.0}
    outliers = sum(1 for d in diffs if d > tolerance)
    return {
        "samples": len(diffs),
        "mean_divergence": sum(diffs) / len(diffs),
        "outlier_fraction": outliers / len(diffs),
    }
