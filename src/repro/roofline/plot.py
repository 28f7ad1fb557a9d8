"""Roofline plots: ASCII (for terminals and golden tests) and SVG."""

from __future__ import annotations

import html
import math
from typing import List, Optional

from repro.roofline.model import RooflineModel


def _log_ticks(low: float, high: float) -> List[float]:
    ticks = []
    exponent = math.floor(math.log10(low)) if low > 0 else -2
    while 10 ** exponent <= high * 1.01:
        ticks.append(10 ** exponent)
        exponent += 1
    return ticks


def render_ascii_roofline(model: RooflineModel, width: int = 72, height: int = 22,
                          level: str = "DRAM") -> str:
    """Log-log ASCII roofline: '=' is the roof, 'o' the measured kernels."""
    points = model.points
    ai_values = [p.arithmetic_intensity for p in points if p.arithmetic_intensity > 0]
    ai_min = min([0.01] + ai_values) / 2
    ai_max = max([16.0] + ai_values) * 2
    gf_max = model.roofs.peak_gflops * 2
    gf_min = min([model.roofs.attainable_gflops(ai_min, level) / 4] +
                 [p.gflops / 2 for p in points if p.gflops > 0] + [0.01])

    def x_of(ai: float) -> int:
        span = math.log10(ai_max) - math.log10(ai_min)
        return int((math.log10(max(ai, ai_min)) - math.log10(ai_min)) / span * (width - 1))

    def y_of(gflops: float) -> int:
        span = math.log10(gf_max) - math.log10(gf_min)
        fraction = (math.log10(max(gflops, gf_min)) - math.log10(gf_min)) / span
        return (height - 1) - int(fraction * (height - 1))

    grid = [[" "] * width for _ in range(height)]

    # The roof: attainable performance across the AI range.
    for column in range(width):
        ai = 10 ** (math.log10(ai_min) + column / (width - 1)
                    * (math.log10(ai_max) - math.log10(ai_min)))
        attainable = model.roofs.attainable_gflops(ai, level)
        if attainable <= 0:
            continue
        row = y_of(attainable)
        if 0 <= row < height:
            grid[row][column] = "="

    # Measured points.
    for point in points:
        if point.arithmetic_intensity <= 0 or point.gflops <= 0:
            continue
        row, column = y_of(point.gflops), x_of(point.arithmetic_intensity)
        if 0 <= row < height and 0 <= column < width:
            grid[row][column] = "o"

    lines = [
        f"Roofline: {model.roofs.platform} "
        f"(peak {model.roofs.peak_gflops:.1f} GFLOP/s, "
        f"{level} {model.roofs.bandwidth_gbps.get(level, 0):.1f} GB/s, {model.roofs.source})"
    ]
    lines.append("GFLOP/s (log)")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width + "> FLOP/byte (log)")
    for point in points:
        lines.append(
            f"  o {point.name}: AI={point.arithmetic_intensity:.3f}, "
            f"{point.gflops:.2f} GFLOP/s [{model.bound_of(point, level)}]"
        )
    return "\n".join(lines)


def render_svg_roofline(model: RooflineModel, width: int = 640, height: int = 420,
                        level: str = "DRAM", title: Optional[str] = None) -> str:
    """A self-contained SVG roofline plot (log-log axes)."""
    margin = 50
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    points = model.points
    ai_values = [p.arithmetic_intensity for p in points if p.arithmetic_intensity > 0]
    ai_min = min([0.01] + ai_values) / 2
    ai_max = max([16.0] + ai_values) * 2
    gf_max = model.roofs.peak_gflops * 2
    gf_min = min([0.05] + [p.gflops / 2 for p in points if p.gflops > 0])

    def x_of(ai: float) -> float:
        span = math.log10(ai_max) - math.log10(ai_min)
        return margin + (math.log10(max(ai, ai_min)) - math.log10(ai_min)) / span * plot_w

    def y_of(gflops: float) -> float:
        span = math.log10(gf_max) - math.log10(gf_min)
        fraction = (math.log10(max(gflops, gf_min)) - math.log10(gf_min)) / span
        return margin + plot_h - fraction * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f'{html.escape(title or ("Roofline - " + model.roofs.platform))}</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]

    # Axis ticks.
    for tick in _log_ticks(ai_min, ai_max):
        x = x_of(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{margin + plot_h}" x2="{x:.1f}" '
                     f'y2="{margin + plot_h + 4}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin + plot_h + 16}" font-size="9" '
                     f'text-anchor="middle">{tick:g}</text>')
    for tick in _log_ticks(gf_min, gf_max):
        y = y_of(tick)
        parts.append(f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" '
                     f'stroke="#444"/>')
        parts.append(f'<text x="{margin - 6}" y="{y + 3:.1f}" font-size="9" '
                     f'text-anchor="end">{tick:g}</text>')

    # Bandwidth roofs (one polyline per memory level) and the compute roof.
    for name, bandwidth in model.roofs.bandwidth_gbps.items():
        if bandwidth <= 0:
            continue
        ridge_ai = model.roofs.peak_gflops / bandwidth
        x1, y1 = x_of(ai_min), y_of(ai_min * bandwidth)
        x2, y2 = x_of(min(ridge_ai, ai_max)), y_of(min(model.roofs.peak_gflops,
                                                       ridge_ai * bandwidth))
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="#2b6cb0" stroke-width="1.5"/>')
        parts.append(f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2 - 4:.1f}" '
                     f'font-size="9" fill="#2b6cb0">{html.escape(name)}</text>')
    peak_y = y_of(model.roofs.peak_gflops)
    parts.append(f'<line x1="{x_of(model.roofs.ridge_point(level)):.1f}" y1="{peak_y:.1f}" '
                 f'x2="{margin + plot_w}" y2="{peak_y:.1f}" stroke="#c53030" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{margin + plot_w - 4}" y="{peak_y - 5:.1f}" font-size="9" '
                 f'text-anchor="end" fill="#c53030">'
                 f'peak {model.roofs.peak_gflops:.1f} GFLOP/s</text>')

    # Points.
    for point in points:
        if point.arithmetic_intensity <= 0 or point.gflops <= 0:
            continue
        x, y = x_of(point.arithmetic_intensity), y_of(point.gflops)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#276749"/>')
        parts.append(f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="9">'
                     f'{html.escape(point.name)} ({point.gflops:.2f})</text>')

    parts.append(f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" '
                 f'font-size="11">Arithmetic intensity (FLOP/byte, log)</text>')
    parts.append(f'<text x="14" y="{height / 2}" font-size="11" '
                 f'transform="rotate(-90 14 {height / 2})" text-anchor="middle">'
                 f'GFLOP/s (log)</text>')
    parts.append("</svg>")
    return "\n".join(parts)
