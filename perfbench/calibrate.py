"""Host-speed calibration: a fixed pure-Python probe run inside every timing.

The benchmark runs on shared hosts whose neighbours slow a vCPU by up to
half for a fraction of a second at a time, and for minutes on end in
total, in CPU time as much as in wall time.  A raw time then measures the
neighbours as much as the program.  ``HostClock`` samples the host's
speed *during* the timed code: a wall-clock interval timer interrupts it
every ``PERIOD_S`` and runs one probe -- a fixed piece of pure-Python
work -- whose duration it records.  The probe's time is taken out of the
measurement, and what remains is scaled to a reference host::

    normalised_s = (raw_s - probe_s) * mean(REFERENCE_PROBE_S / probe_i)

The mean of the per-probe speeds, sampled uniformly in wall time, is the
host's mean speed over the measurement, so the product is the time the
same work takes on a host where every probe lasts ``REFERENCE_PROBE_S``.

The probe does the kind of work the simulator does -- method calls,
attribute and dict traffic, small-int arithmetic, short-lived tuples --
on a working set small enough to stay cached, and depends on nothing but the standard library, so no change to ``repro`` moves it.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List

#: Wall seconds between two probes.
PERIOD_S = 0.025
#: Probe rounds of 32 steps each; about half a millisecond on a quiet host.
ROUNDS = 40
#: Median seconds of one probe on the reference host (a quiet 2-vCPU
#: x86_64 VM with CPython 3.11).  Only a scale: it turns the host's
#: measured speed back into seconds of that host.
REFERENCE_PROBE_S = 0.0005

class _Counter:
    __slots__ = ("value", "events")

    def __init__(self) -> None:
        self.value = 0
        self.events = {}

    def add(self, kind: str, amount: int) -> None:
        self.value += amount
        self.events[kind] = self.events.get(kind, 0) + 1


def _round(counter: _Counter, tags: dict, rows: list, seed: int) -> int:
    for i in range(32):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        key = i >> 3
        bit = (seed >> 12) & 1
        if tags.get(key) == bit:
            counter.add("hit", 1)
        else:
            tags[key] = bit
            counter.add("miss", 2)
        rows.append((key, seed, counter.value & 0xFFFF))
    del rows[:]
    return seed


def probe_s() -> float:
    """Seconds one probe takes on this host, now."""
    counter, tags, rows, seed = _Counter(), {}, [], 1
    start = perf_counter()
    for _ in range(ROUNDS):
        seed = _round(counter, tags, rows, seed)
    elapsed = perf_counter() - start
    if sum(counter.events.values()) != ROUNDS * 32:
        raise AssertionError("calibration probe miscounted")
    return elapsed


class HostClock:
    """Probes the host's speed every ``PERIOD_S`` while it runs.

    ``start()``/``stop()`` bracket the timed code (they may bracket several
    stretches; the probes accumulate).  Uses ``SIGALRM``, so only one clock
    may run in a process, on its main thread.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def _probe(self, _signum, _frame) -> None:
        self.probes.append(probe_s())

    def start(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self) -> None:
        del self.probes[:]

    @property
    def speed(self) -> float:
        """Mean host speed relative to the reference host (1.0 = as fast)."""
        if not self.probes:
            return 1.0
        return sum(REFERENCE_PROBE_S / p for p in self.probes) / len(self.probes)

    def figures(self) -> dict:
        return {"probes": len(self.probes), "probe_s": sum(self.probes),
                "speed": self.speed}


def normalise(raw_s: float, figures: dict) -> float:
    """*raw_s*, probes taken out, in seconds of the reference host."""
    return (raw_s - figures["probe_s"]) * figures["speed"]
