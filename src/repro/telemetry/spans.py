"""Structured spans with a zero-overhead-when-disabled context API.

``tracer.span("compile", workload="matmul-tiled")`` is the whole API.  When
the tracer is disabled (the default) the call is one attribute check and
returns a shared null context manager -- no allocation, no clock read --
which is what lets the hot paths keep their spans compiled in.

Span *structure* is deterministic: nesting, names, categories, args and the
``seq``/``end_seq`` ordinals all come from a monotonic tick counter, never
from the wall clock, so two runs of the same workload produce identical
span trees (the determinism suite pins this).  Wall-clock timestamps ride
along in separate ``wall_start_us``/``wall_dur_us`` fields used only for
trace rendering.  :func:`clock` is the repo's single audited wall-clock
read: span timestamps, phase and pass timings, served latency and sweep
elapsed time all go through it.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Dict, List, Optional


def clock() -> float:
    """Host wall-clock seconds, for observability only.

    Every reader -- span timestamps, ``run.timings``, per-pass compile
    times, served latency and Retry-After hints, sweep elapsed time --
    reports host time; none feeds modelled time, cache keys or golden
    output (the goldens strip timings).
    """
    return perf_counter()  # repro-lint: allow[wall-clock] -- the one audited clock read: observability only, never modelled time, cache keys or golden output


def _wall_us() -> int:
    """Microsecond wall timestamp for trace rendering (non-structural)."""
    return int(clock() * 1_000_000)


class Span:
    """One node in a span tree."""

    __slots__ = ("name", "cat", "args", "seq", "end_seq",
                 "wall_start_us", "wall_dur_us", "children")

    def __init__(self, name: str, cat: str, args: Dict[str, Any]):
        self.name = name
        self.cat = cat
        self.args = args
        self.seq = 0
        self.end_seq = 0
        self.wall_start_us = 0
        self.wall_dur_us = 0
        self.children: List["Span"] = []

    def to_wire(self) -> dict:
        """JSON/pickle-safe form for shipping across process boundaries."""
        return {
            "name": self.name, "cat": self.cat, "args": dict(self.args),
            "seq": self.seq, "end_seq": self.end_seq,
            "wall_start_us": self.wall_start_us,
            "wall_dur_us": self.wall_dur_us,
            "children": [child.to_wire() for child in self.children],
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Span":
        span = cls(payload["name"], payload["cat"], dict(payload["args"]))
        span.seq = payload["seq"]
        span.end_seq = payload["end_seq"]
        span.wall_start_us = payload["wall_start_us"]
        span.wall_dur_us = payload["wall_dur_us"]
        span.children = [cls.from_wire(child)
                         for child in payload["children"]]
        return span

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, cat={self.cat!r}, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self.span = Span(name, cat, args)

    def note(self, **args: Any) -> None:
        """Attach extra args to the open span."""
        self.span.args.update(args)

    def __enter__(self) -> "_SpanContext":
        self._tracer._open(self.span)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._close(self.span)
        return False


class Tracer:
    """Per-process span recorder.  Disabled by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.roots: List[Span] = []
        self._tick = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args: Any):
        """Open a span context.  One attribute check when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, cat, args)

    def record(self, name: str, cat: str = "event",
               wall_dur_us: int = 0, **args: Any) -> Optional[Span]:
        """Append a complete flat root span (no stack involvement).

        The asyncio daemon uses this for per-request spans: interleaved
        requests would corrupt a thread-local stack, so request spans are
        recorded flat, each a root of its own.
        """
        if not self.enabled:
            return None
        span = Span(name, cat, args)
        with self._lock:
            self._tick += 1
            span.seq = self._tick
            self._tick += 1
            span.end_seq = self._tick
        span.wall_start_us = _wall_us() - wall_dur_us
        span.wall_dur_us = wall_dur_us
        with self._lock:
            self.roots.append(span)
        return span

    def attach_wire(self, payloads: List[dict], parent: Optional[Span] = None,
                    ) -> List[Span]:
        """Graft wire-format spans from another process under *parent*
        (or as roots).  Shipped seq ordinals are kept -- they order spans
        within their originating process, which is all the determinism
        suite compares."""
        spans = [Span.from_wire(payload) for payload in payloads]
        if parent is not None:
            parent.children.extend(spans)
        else:
            with self._lock:
                self.roots.extend(spans)
        return spans

    # -- stack plumbing -----------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        with self._lock:
            self._tick += 1
            span.seq = self._tick
        span.wall_start_us = _wall_us()
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        with self._lock:
            self._tick += 1
            span.end_seq = self._tick
        span.wall_dur_us = max(0, _wall_us() - span.wall_start_us)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:             # unwound through an exception
            del stack[stack.index(span):]

    # -- lifecycle ----------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.roots = []
        self._tick = 0
        self._local = threading.local()

    def drain(self) -> List[Span]:
        """Return and clear the recorded roots."""
        roots, self.roots = self.roots, []
        return roots
