"""Flame-graph data model: folded stacks and the merged frame tree."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.ring_buffer import SampleRecord


class FlameNode:
    """One frame in the merged flame graph."""

    def __init__(self, name: str, depth: int = 0):
        self.name = name
        self.depth = depth
        self.value = 0                      # weight of samples ending here or below
        self.self_value = 0                 # weight of samples ending exactly here
        self.children: Dict[str, "FlameNode"] = {}

    def child(self, name: str) -> "FlameNode":
        node = self.children.get(name)
        if node is None:
            node = FlameNode(name, self.depth + 1)
            self.children[name] = node
        return node

    def sorted_children(self) -> List["FlameNode"]:
        """Children sorted alphabetically (the flame-graph x-axis convention)."""
        return [self.children[name] for name in sorted(self.children)]

    def total_frames(self) -> int:
        return 1 + sum(child.total_frames() for child in self.children.values())

    def max_depth(self) -> int:
        if not self.children:
            return self.depth
        return max(child.max_depth() for child in self.children.values())

    def find(self, name: str) -> Optional["FlameNode"]:
        """Depth-first search for the first frame called *name*."""
        if self.name == name:
            return self
        for child in self.sorted_children():
            found = child.find(name)
            if found is not None:
                return found
        return None

    def frame_fraction(self, name: str) -> float:
        """Combined weight of all frames named *name*, as a fraction of the root."""
        if self.value == 0:
            return 0.0
        total = 0

        def walk(node: "FlameNode") -> None:
            nonlocal total
            if node.name == name:
                total += node.value
                return  # do not double-count descendants of a matching frame
            for child in node.children.values():
                walk(child)

        walk(self)
        return total / self.value

    def __repr__(self) -> str:
        return f"FlameNode({self.name!r}, value={self.value}, children={len(self.children)})"


def _sample_weight(sample: SampleRecord, weight: str,
                   previous: Dict[str, int]) -> int:
    """Weight of one sample: 1 (sample count) or a group event's delta."""
    if weight == "samples":
        return 1
    current = sample.group_values.get(weight)
    if current is None:
        return 1
    last = previous.get(weight, 0)
    delta = max(0, current - last)
    previous[weight] = max(last, current)
    return delta


def build_flame_graph(samples: Sequence[SampleRecord], weight: str = "samples") -> FlameNode:
    """Merge samples into a flame graph.

    ``weight`` is ``"samples"`` or the name of a group event
    (``"instructions"``, ``"cycles"``); event weights use per-sample deltas of
    the cumulative group readouts.
    """
    root = FlameNode("all")
    previous: Dict[str, int] = {}
    for sample in samples:
        value = _sample_weight(sample, weight, previous)
        if value <= 0:
            continue
        # Call chains are leaf-first; flame graphs grow root-first.
        stack = list(reversed(sample.callchain)) or ["<unknown>"]
        root.value += value
        node = root
        for frame in stack:
            node = node.child(frame)
            node.value += value
        node.self_value += value
    return root


def merge_flame_graphs(named_roots: Dict[str, FlameNode],
                       name: str = "all") -> FlameNode:
    """Graft several flame graphs under one root, labelled by their key.

    Used for SMP recordings: each hart's flame graph becomes a ``cpuN``
    frame directly under the merged root, so per-hart time is visible as
    first-level frame widths while the per-hart call trees stay intact.
    Keys are laid out in sorted order (the flame-graph x-axis convention).
    """

    def graft(parent: FlameNode, node: FlameNode) -> None:
        for child in node.children.values():
            target = parent.child(child.name)
            target.value += child.value
            target.self_value += child.self_value
            graft(target, child)

    root = FlameNode(name)
    for label in sorted(named_roots):
        source = named_roots[label]
        if source.value == 0:
            continue
        frame = root.child(label)
        frame.value += source.value
        frame.self_value += source.self_value
        root.value += source.value
        graft(frame, source)
    return root


def fold_stacks(samples: Sequence[SampleRecord], weight: str = "samples") -> List[str]:
    """Produce Brendan Gregg's folded-stack format (``a;b;c count``)."""
    collapsed: Dict[Tuple[str, ...], int] = {}
    previous: Dict[str, int] = {}
    for sample in samples:
        value = _sample_weight(sample, weight, previous)
        if value <= 0:
            continue
        stack = tuple(reversed(sample.callchain)) or ("<unknown>",)
        collapsed[stack] = collapsed.get(stack, 0) + value
    lines = [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(collapsed.items())
    ]
    return lines
