"""ASCII flame-graph rendering.

Produces a fixed-width rendition in which every line is one stack depth and
frame widths are proportional to their weight -- good enough to eyeball the
same "which box is widest" comparisons the paper makes between Figure 3's
subplots, and convenient for golden-output tests.
"""

from __future__ import annotations

from typing import List

from repro.flamegraph.model import FlameNode


def _layout(node: FlameNode, start: float, width: float, rows: List[List[tuple]]) -> None:
    while len(rows) <= node.depth:
        rows.append([])
    if node.depth >= 0:
        rows[node.depth].append((start, width, node.name))
    if node.value == 0 or not node.children:
        return
    offset = start
    for child in node.sorted_children():
        child_width = width * (child.value / node.value)
        _layout(child, offset, child_width, rows)
        offset += child_width


def render_text(root: FlameNode, width: int = 100) -> str:
    """Render the flame graph as fixed-width text, one row per depth (the
    root row is left out)."""
    if root.value == 0:
        return "(empty flame graph)"
    rows: List[List[tuple]] = []
    _layout(root, 0.0, float(width), rows)
    lines: List[str] = []
    for depth in range(len(rows) - 1, 0, -1):
        line = [" "] * width
        for start, cell_width, name in rows[depth]:
            begin = int(round(start))
            end = max(begin + 1, int(round(start + cell_width)))
            end = min(end, width)
            if end <= begin:
                continue
            cell = max(1, end - begin)
            label = name[:cell - 1] if cell > 2 else ""
            text = ("|" + label).ljust(cell, "-")
            line[begin:end] = list(text[:cell])
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


def render_summary(root: FlameNode, top: int = 10) -> str:
    """A one-line-per-function summary of the widest frames."""
    totals = {}

    def walk(node: FlameNode) -> None:
        if node.depth > 0:
            totals[node.name] = totals.get(node.name, 0) + node.self_value
        for child in node.children.values():
            walk(child)

    walk(root)
    total = root.value or 1
    lines = []
    for name, value in sorted(totals.items(), key=lambda kv: kv[1], reverse=True)[:top]:
        lines.append(f"{100.0 * value / total:6.2f}%  {name}")
    return "\n".join(lines)
