"""The roofline model: application dots against machine ceilings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.roofline.machine import MachineRoofs


@dataclass
class RooflinePoint:
    """One application/kernel measurement on the roofline plane."""

    name: str
    arithmetic_intensity: float         # FLOPs / byte
    gflops: float                        # achieved GFLOP/s
    fp_ops: int = 0
    bytes_moved: int = 0
    cycles: int = 0
    source: str = "miniperf"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "arithmetic_intensity": round(self.arithmetic_intensity, 4),
            "gflops": round(self.gflops, 4),
            "fp_ops": self.fp_ops,
            "bytes": self.bytes_moved,
            "cycles": self.cycles,
            "source": self.source,
        }


@dataclass
class RooflineModel:
    """Roofs plus the points measured against them."""

    roofs: MachineRoofs
    points: List[RooflinePoint] = field(default_factory=list)

    def add_point(self, point: RooflinePoint) -> None:
        self.points.append(point)

    def attainable(self, arithmetic_intensity: float, level: str = "DRAM") -> float:
        return self.roofs.attainable_gflops(arithmetic_intensity, level)

    def bound_of(self, point: RooflinePoint, level: str = "DRAM") -> str:
        """Classify a point as memory-bound or compute-bound."""
        ridge = self.roofs.ridge_point(level)
        return "memory-bound" if point.arithmetic_intensity < ridge else "compute-bound"

    def efficiency_of(self, point: RooflinePoint, level: str = "DRAM") -> float:
        """Achieved fraction of the attainable performance at the point's AI."""
        attainable = self.attainable(point.arithmetic_intensity, level)
        return point.gflops / attainable if attainable else 0.0

    def summary(self) -> str:
        lines = [self.roofs.describe(), ""]
        for point in self.points:
            bound = self.bound_of(point)
            efficiency = self.efficiency_of(point)
            lines.append(
                f"  {point.name}: AI={point.arithmetic_intensity:.3f} FLOP/B, "
                f"{point.gflops:.2f} GFLOP/s ({bound}, "
                f"{efficiency * 100:.1f}% of attainable)"
            )
        return "\n".join(lines)
