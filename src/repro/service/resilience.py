"""Crash-loop protection for the daemon: circuit breaker + quarantine.

A worker crash is supposed to be rare; a *poisoned request* -- one whose
execution reliably kills a worker -- turns the daemon's respawn-and-retry
healing into a crash loop that burns CPU re-warming pools.  Two mechanisms
stop that:

* **Per-key quarantine**: a cache key whose execution crashed workers
  ``quarantine_after`` times is refused outright (503 ``Quarantined``)
  without touching the pool, so one poisoned request cannot take the
  service down for everyone else.
* **Circuit breaker**: ``threshold`` crashes within ``window`` seconds
  (whatever their keys) open the breaker.  Open means *degraded
  cache-only mode*: cache hits are still served, misses get 503 +
  Retry-After, ``/healthz`` reports ``degraded``.  After ``cooldown``
  seconds the breaker goes half-open and admits exactly one probe
  request; a successful probe closes it, a crash re-opens it for another
  cooldown.

The breaker is deliberately clock-injectable (the daemon passes the repo's
one audited wall-clock reader, :func:`repro.telemetry.clock`) and synchronous -- it is only ever touched from
the daemon's event-loop thread.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Set, Tuple

#: Breaker states (:meth:`CircuitBreaker.state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Admission verdicts (:meth:`CircuitBreaker.admit`).
ALLOW = "allow"
PROBE = "probe"
REFUSE_OPEN = "open"
REFUSE_QUARANTINED = "quarantined"


class CircuitBreaker:
    """Crash-loop breaker with per-key quarantine and half-open probing."""

    def __init__(self, threshold: int = 3, window: float = 30.0,
                 cooldown: float = 5.0, quarantine_after: int = 2,
                 clock: Callable[[], float] = None):
        if clock is None:
            raise ValueError("CircuitBreaker needs an explicit clock")
        self.threshold = max(1, int(threshold))
        self.window = float(window)
        self.cooldown = float(cooldown)
        self.quarantine_after = max(1, int(quarantine_after))
        self._clock = clock
        self._crash_times: "deque[float]" = deque()
        self._crashes_by_key: Dict[str, int] = {}
        self.quarantined: Set[str] = set()
        self._opened_at: Optional[float] = None
        self._probing = False
        self.opens = 0

    # -- state --------------------------------------------------------------------------

    def state(self) -> str:
        if self._opened_at is None:
            return CLOSED
        if self._probing:
            return HALF_OPEN
        if self._clock() - self._opened_at >= self.cooldown:
            return HALF_OPEN
        return OPEN

    def _trim(self, now: float) -> None:
        while self._crash_times and now - self._crash_times[0] > self.window:
            self._crash_times.popleft()

    # -- admission ----------------------------------------------------------------------

    def admit(self, key: str) -> Tuple[str, Optional[float]]:
        """Whether an *execution* of ``key`` may proceed.

        Returns ``(verdict, retry_after)``: :data:`ALLOW` (breaker closed),
        :data:`PROBE` (half-open; this request is the single probe --
        report its outcome via ``record_success`` / ``record_crash`` /
        ``abort_probe``), :data:`REFUSE_OPEN` (degraded mode; retry after
        the hint) or :data:`REFUSE_QUARANTINED` (this key is poisoned).
        Cache hits never reach here: degraded mode serves them as usual.
        """
        if key in self.quarantined:
            return REFUSE_QUARANTINED, None
        state = self.state()
        if state == CLOSED:
            return ALLOW, None
        if state == HALF_OPEN and not self._probing:
            self._probing = True
            return PROBE, None
        remaining = self.cooldown
        if self._opened_at is not None:
            remaining = self.cooldown - (self._clock() - self._opened_at)
        return REFUSE_OPEN, round(max(0.1, remaining), 3)

    # -- outcomes -----------------------------------------------------------------------

    def record_crash(self, key: str, probe: bool = False) -> None:
        """A worker died executing ``key``; opens/re-opens as thresholds hit."""
        now = self._clock()
        count = self._crashes_by_key.get(key, 0) + 1
        self._crashes_by_key[key] = count
        if count >= self.quarantine_after:
            self.quarantined.add(key)
        self._crash_times.append(now)
        self._trim(now)
        if probe and self._probing:
            # The probe crashed: re-open for a fresh cooldown.
            self._probing = False
            self._opened_at = now
            self.opens += 1
        elif self._opened_at is None \
                and len(self._crash_times) >= self.threshold:
            self._opened_at = now
            self.opens += 1

    def record_success(self, key: str, probe: bool = False) -> None:
        """``key`` executed cleanly; a successful probe closes the breaker."""
        self._crashes_by_key.pop(key, None)
        if probe and self._probing:
            self._probing = False
            self._opened_at = None
            self._crash_times.clear()

    def abort_probe(self) -> None:
        """The probe ended without a clean success *or* a crash (timeout,
        validation error): stay open-past-cooldown so the next admission
        probes again."""
        self._probing = False

    # -- reporting ----------------------------------------------------------------------

    def to_dict(self) -> dict:
        self._trim(self._clock())
        return {
            "state": self.state(),
            "crashes_in_window": len(self._crash_times),
            "threshold": self.threshold,
            "window_seconds": self.window,
            "cooldown_seconds": self.cooldown,
            "opens": self.opens,
            "quarantined": sorted(self.quarantined),
        }
