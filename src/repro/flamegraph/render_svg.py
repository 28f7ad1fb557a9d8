"""SVG flame-graph rendering (self-contained, no external dependencies)."""

from __future__ import annotations

import html
import zlib
from typing import List

from repro.flamegraph.model import FlameNode

_FRAME_HEIGHT = 16
_PALETTE = [
    "#e5541b", "#ef7f32", "#f5a54a", "#fac863", "#d6732c",
    "#e0893a", "#c9601f", "#f09044", "#e36e26", "#f7b055",
]


def _color_for(name: str) -> str:
    # Stable across processes (hash() of a str is PYTHONHASHSEED-randomised):
    # the same frame always gets the same colour in regenerated SVGs.
    return _PALETTE[zlib.crc32(name.encode("utf-8")) % len(_PALETTE)]


def _emit(node: FlameNode, x: float, width: float, total_depth: int,
          image_width: int, parts: List[str]) -> None:
    if node.depth > 0 and width >= 0.5:
        y = (total_depth - node.depth) * _FRAME_HEIGHT
        label = html.escape(node.name)
        title = f"{label} ({node.value})"
        parts.append(
            f'<g><title>{title}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" height="{_FRAME_HEIGHT - 1}" '
            f'fill="{_color_for(node.name)}" rx="2" ry="2"/>'
        )
        if width > 40:
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 11}" font-size="10" '
                f'font-family="monospace">{label[: int(width / 7)]}</text>'
            )
        parts.append("</g>")
    if node.value == 0:
        return
    offset = x
    for child in node.sorted_children():
        child_width = width * (child.value / node.value)
        _emit(child, offset, child_width, total_depth, image_width, parts)
        offset += child_width


def render_svg(root: FlameNode, title: str = "Flame Graph", width: int = 1000) -> str:
    """Render the flame graph to an SVG document string."""
    depth = max(1, root.max_depth())
    height = (depth + 2) * _FRAME_HEIGHT + 24
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{html.escape(title)}</text>',
        f'<g transform="translate(0, 24)">',
    ]
    _emit(root, 0.0, float(width), depth, width, parts)
    parts.append("</g></svg>")
    return "\n".join(parts)
