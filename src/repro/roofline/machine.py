"""Machine roofs: the ceilings of the roofline plot.

The paper builds the X60 roofs from a measured memory benchmark (3.16
bytes/cycle from Olaf Bernstein's memset results) and a theoretical compute
peak (2 IPC x 8 SP lanes x 1.6 GHz = 25.6 GFLOP/s); the x86 roofs are taken
from Intel Advisor.  Both paths exist here: :func:`theoretical_roofs` derives
ceilings from the platform descriptor, and :mod:`repro.roofline.microbench`
measures them by running microbenchmarks on the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.platforms.descriptors import PlatformDescriptor


@dataclass
class MachineRoofs:
    """Compute and memory ceilings for one platform."""

    platform: str
    peak_gflops: float
    #: Bandwidth ceilings in GB/s, keyed by memory level ("DRAM", "L2", "L1").
    bandwidth_gbps: Dict[str, float] = field(default_factory=dict)
    source: str = "theoretical"
    frequency_hz: float = 0.0

    @property
    def dram_bandwidth(self) -> float:
        return self.bandwidth_gbps.get("DRAM", 0.0)

    def ridge_point(self, level: str = "DRAM") -> float:
        """Arithmetic intensity at which the kernel stops being memory bound."""
        bandwidth = self.bandwidth_gbps.get(level, 0.0)
        return self.peak_gflops / bandwidth if bandwidth else 0.0

    def attainable_gflops(self, arithmetic_intensity: float,
                          level: str = "DRAM") -> float:
        """The roofline function: min(peak, AI x bandwidth)."""
        bandwidth = self.bandwidth_gbps.get(level, 0.0)
        if arithmetic_intensity <= 0 or bandwidth <= 0:
            return 0.0
        return min(self.peak_gflops, arithmetic_intensity * bandwidth)

    def describe(self) -> str:
        lines = [f"{self.platform} roofs ({self.source}):",
                 f"  peak compute: {self.peak_gflops:.2f} GFLOP/s"]
        for level, bandwidth in self.bandwidth_gbps.items():
            lines.append(f"  {level} bandwidth: {bandwidth:.2f} GB/s "
                         f"(ridge at {self.ridge_point(level):.2f} FLOP/byte)")
        return "\n".join(lines)


def theoretical_roofs(descriptor: PlatformDescriptor) -> MachineRoofs:
    """Roofs computed exactly the way the paper's Section 5.2 does.

    Memory: ``peak bytes/cycle x frequency``.  Compute: the descriptor's peak
    SP FLOPs/cycle x frequency (for the X60 that is the paper's 2 IPC x 8
    lanes assumption).  L2 and L1 bandwidths are derived from the cache
    line transfer rate (one line per ``hit_latency`` cycles), a standard
    first-order estimate.
    """
    frequency = descriptor.core.frequency_hz
    bandwidth: Dict[str, float] = {
        "DRAM": descriptor.memory.peak_bytes_per_cycle * frequency / 1e9,
    }
    for cache in descriptor.caches:
        per_cycle = cache.line_bytes / max(1, cache.hit_latency)
        bandwidth[cache.name] = per_cycle * frequency / 1e9
    return MachineRoofs(
        platform=descriptor.name,
        peak_gflops=descriptor.theoretical_peak_gflops(),
        bandwidth_gbps=bandwidth,
        source="theoretical",
        frequency_hz=frequency,
    )
