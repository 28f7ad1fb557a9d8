"""Parsing for the ``REPRO_FAULTS`` fault-injection spec.

A spec is a ``;``-separated list of clauses, one per fault point::

    store.read_corrupt:rate=0.5:seed=7;pool.worker_crash:every=3

Each clause names a registered fault point followed by ``key=value``
settings.  Exactly one trigger may be given -- ``rate`` (a probability in
``(0, 1]`` drawn from a seeded ``random.Random``) or ``every`` (fire on
every Nth evaluation of the point); a clause with neither fires on every
evaluation.  ``seed`` fixes the per-point generator (default 0), ``ms``
sets the injected latency for the slow/stall points (default 25 ms), and
``times`` caps how many injections the point may perform before going
quiet.  Two clauses for the same point are an error: a spec must read
unambiguously.

Parsing is strict on purpose.  A typo'd point name or a malformed value
raises ``ValueError`` at the first injection site instead of silently
running a chaos experiment with no chaos in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Every fault point the runtime knows how to trigger, with the behavior a
#: matching clause buys.  ``repro.faults`` rejects any other name.
FAULT_POINTS: Dict[str, str] = {
    "pool.worker_crash":
        "kill a worker-pool process mid-request (os._exit; the inline "
        "workers=0 pool raises WorkerCrash instead)",
    "pool.slow_worker":
        "sleep before any request body (run, compare, analyze) starts",
    "store.read_corrupt":
        "flip one bit of a disk-cache entry after reading it",
    "store.write_corrupt":
        "flip one bit of a disk-cache entry as it is written",
    "store.partial_write":
        "truncate a disk-cache entry as it is written",
    "compiler.compile_fail":
        "raise InjectedFault instead of compiling a kernel",
    "daemon.conn_drop":
        "close the HTTP connection without writing a response",
    "daemon.stall_response":
        "sleep before writing the HTTP response",
}

_KNOWN_KEYS = ("rate", "every", "seed", "ms", "times")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause: a fault point plus its trigger and knobs."""

    point: str
    rate: Optional[float] = None
    every: Optional[int] = None
    seed: int = 0
    ms: float = 25.0
    times: Optional[int] = None

    def describe(self) -> str:
        trigger = (f"rate={self.rate}" if self.rate is not None
                   else f"every={self.every}" if self.every is not None
                   else "always")
        return f"{self.point}[{trigger} seed={self.seed}]"


def _parse_clause(clause: str) -> FaultSpec:
    parts = [part.strip() for part in clause.split(":")]
    point = parts[0]
    if point not in FAULT_POINTS:
        known = ", ".join(sorted(FAULT_POINTS))
        raise ValueError(f"unknown fault point {point!r} (known: {known})")
    settings: Dict[str, str] = {}
    for part in parts[1:]:
        if not part:
            continue
        name, separator, value = part.partition("=")
        name = name.strip()
        if not separator or name not in _KNOWN_KEYS:
            raise ValueError(
                f"bad fault setting {part!r} for {point!r} "
                f"(expected one of {', '.join(_KNOWN_KEYS)} as key=value)")
        if name in settings:
            raise ValueError(f"duplicate fault setting {name!r} for {point!r}")
        settings[name] = value.strip()
    if "rate" in settings and "every" in settings:
        raise ValueError(
            f"fault point {point!r} gives both rate= and every=; pick one")

    rate = every = times = None
    try:
        if "rate" in settings:
            rate = float(settings["rate"])
        if "every" in settings:
            every = int(settings["every"])
        if "times" in settings:
            times = int(settings["times"])
        seed = int(settings.get("seed", "0"))
        ms = float(settings.get("ms", "25"))
    except ValueError as error:
        raise ValueError(
            f"malformed fault setting for {point!r}: {error}") from None
    if rate is not None and not 0.0 < rate <= 1.0:
        raise ValueError(f"fault rate for {point!r} must be in (0, 1], "
                         f"got {rate}")
    if every is not None and every < 1:
        raise ValueError(f"fault every= for {point!r} must be >= 1, "
                         f"got {every}")
    if times is not None and times < 1:
        raise ValueError(f"fault times= for {point!r} must be >= 1, "
                         f"got {times}")
    if ms < 0:
        raise ValueError(f"fault ms= for {point!r} must be >= 0, got {ms}")
    return FaultSpec(point=point, rate=rate, every=every, seed=seed,
                     ms=ms, times=times)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated set of clauses keyed by fault point."""

    specs: Tuple[FaultSpec, ...]

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = []
        seen = set()
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            spec = _parse_clause(clause)
            if spec.point in seen:
                raise ValueError(
                    f"fault point {spec.point!r} appears twice in the spec")
            seen.add(spec.point)
            specs.append(spec)
        return cls(specs=tuple(specs))

    def spec_for(self, point: str) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.point == point:
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)
