"""Trace exports: Chrome trace-event JSON, JSONL, and flame graphs.

The Chrome trace-event export loads directly in Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: complete events
(``"ph": "X"``) with microsecond ``ts``/``dur``, one event per span.
Structural ordinals (``seq``/``end_seq``) ride in ``args`` so a trace can
be re-sorted deterministically even though its timestamps are wall clock.

:func:`spans_to_flame` renders the same tree through the repo's own
``flamegraph`` package -- the profiler dogfooding itself -- weighting
frames by wall microseconds.

:func:`structural_tree` drops every wall-clock field; it is what the
determinism suite compares across runs and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from repro.flamegraph.model import FlameNode

from .spans import Span


def _walk(spans: Sequence[Span]) -> Iterable[Span]:
    for span in spans:
        yield span
        yield from _walk(span.children)


def chrome_trace(roots: Sequence[Span], pid: int = 1) -> dict:
    """Chrome trace-event JSON object format (Perfetto-loadable)."""
    events: List[dict] = []
    for span in _walk(roots):
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.wall_start_us,
            "dur": span.wall_dur_us,
            "pid": pid,
            "tid": 1,
            "args": dict(span.args, seq=span.seq, end_seq=span.end_seq),
        })
    events.sort(key=lambda event: (event["ts"], event["args"]["seq"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def jsonl_lines(roots: Sequence[Span]) -> List[str]:
    """One JSON object per span, depth-first, seq-ordered within a tree."""
    return [json.dumps(
        {"name": span.name, "cat": span.cat, "seq": span.seq,
         "end_seq": span.end_seq, "wall_start_us": span.wall_start_us,
         "wall_dur_us": span.wall_dur_us, "args": span.args},
        sort_keys=True) for span in _walk(roots)]


def write_trace(path: str, roots: Sequence[Span]) -> None:
    """Write *roots* to *path*: ``.jsonl`` -> JSONL, anything else ->
    Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".jsonl"):
            handle.write("\n".join(jsonl_lines(roots)) + "\n")
        else:
            json.dump(chrome_trace(roots), handle, indent=2)
            handle.write("\n")


def spans_to_flame(roots: Sequence[Span], name: str = "trace") -> FlameNode:
    """Merge a span forest into a flame graph weighted by wall microseconds."""
    flame = FlameNode(name)

    def graft(parent: FlameNode, span: Span) -> None:
        node = parent.child(span.name)
        node.value += span.wall_dur_us
        child_total = 0
        for child in span.children:
            graft(node, child)
            child_total += child.wall_dur_us
        node.self_value += max(0, span.wall_dur_us - child_total)

    for span in roots:
        graft(flame, span)
        flame.value += span.wall_dur_us
    return flame


def structural_tree(roots: Sequence[Span]) -> List[dict]:
    """The deterministic skeleton of a span forest: names, categories,
    args, tick ordinals and nesting -- no wall-clock fields."""
    def strip(span: Span) -> dict:
        return {
            "name": span.name,
            "cat": span.cat,
            "args": {key: span.args[key] for key in sorted(span.args)},
            "seq": span.seq,
            "end_seq": span.end_seq,
            "children": [strip(child) for child in span.children],
        }
    return [strip(span) for span in roots]
