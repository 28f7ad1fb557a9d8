"""Declarative profile specifications.

A :class:`ProfileSpec` says *what to measure and how* -- which events, the
sampling period (or counting mode), whether the vendor PMU driver and the
vectoriser are enabled, and which analyses to derive from the run -- without
saying anything about the platform or the workload.  Specs are immutable;
the ``with_*`` helpers return modified copies, so one base spec can be
shared across many :meth:`repro.api.Session.run` calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.events import HwEvent

#: Analyses a Session knows how to derive from one run.
ANALYSES = ("stat", "hotspots", "flamegraph", "roofline")

DEFAULT_EVENTS: Tuple[HwEvent, ...] = (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)


@dataclass(frozen=True)
class ProfileSpec:
    """What one profiling run should measure and produce.

    Parameters
    ----------
    events:
        The hardware events to profile.  In sampling mode they ride along in
        the sampling group (with the group-leader workaround applied where
        the identified CPU needs it); in counting mode each is counted.
    sample_period:
        Overflow period of the sampling leader.
    vendor_driver:
        ``True``/``False`` force the vendor PMU kernel driver on or off;
        ``None`` uses the session default (the paper measures with vendor
        patches installed).
    enable_vectorizer:
        Whether compiled-kernel workloads run the loop vectoriser.
    seed:
        Seed for synthetic trace generation (determinism across runs).
    invocations:
        How many times the workload body runs under the PMU.
    repeats:
        Repeats of each roofline phase (compiled kernels only).
    cpus:
        How many harts to profile on.  ``1`` (the default) is the single-hart
        fast path, byte-identical to previous releases; ``cpus > 1`` builds a
        :class:`repro.smp.MultiHartMachine` and runs system-wide, with
        per-hart counts and cpu-tagged sample streams.
    fast_dispatch:
        The one switch between the fast paths (the default) and their
        references.  ``True`` runs compiled kernels as generated Python
        code on the batch-retiring engine and synthetic traces retire in
        batches.  ``False`` selects every reference path at once: the
        reference interpreter and per-op retirement, for the PMU runs and
        the roofline phases alike.  The cache hierarchy has one walk either
        way, checked against an independent LRU oracle in the tests.
        Counters, multiplex times, sample streams, SMP schedules and
        roofline results are bit-identical either way (the differential
        suite pins this down); the reference paths exist for exactly those
        equivalence runs.  Per-pass IR verification is not a spec knob: set
        ``REPRO_VERIFY_IR=1``.
    analyses:
        Which of :data:`ANALYSES` to derive.  ``stat`` counts (no samples);
        ``hotspots`` and ``flamegraph`` need one sampling recording (shared);
        ``roofline`` runs the two-phase compiler-driven flow and requires a
        workload that can provide a kernel.
    """

    events: Tuple[HwEvent, ...] = DEFAULT_EVENTS
    sample_period: int = 20_000
    vendor_driver: Optional[bool] = None
    enable_vectorizer: bool = True
    seed: int = 42
    invocations: int = 1
    repeats: int = 1
    cpus: int = 1
    fast_dispatch: bool = True
    analyses: Tuple[str, ...] = ("hotspots", "flamegraph")
    #: Whether this run records structured spans (``--trace``).  Excluded
    #: from :meth:`to_dict` -- the wire format and every cache key must not
    #: vary with observability settings -- but accepted by
    #: :meth:`from_dict` so service requests can ask workers to ship spans.
    telemetry: bool = False

    def __post_init__(self) -> None:
        unknown = [name for name in self.analyses if name not in ANALYSES]
        if unknown:
            raise ValueError(
                f"unknown analyses {unknown}; available: {', '.join(ANALYSES)}"
            )
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.cpus < 1:
            raise ValueError(f"cpus must be >= 1 (got {self.cpus})")

    # -- derivation helpers -------------------------------------------------------------

    def replace(self, **changes: object) -> "ProfileSpec":
        return dataclasses.replace(self, **changes)

    def with_events(self, *events: HwEvent) -> "ProfileSpec":
        return self.replace(events=tuple(events))

    def with_sample_period(self, period: int) -> "ProfileSpec":
        return self.replace(sample_period=period)

    def with_seed(self, seed: int) -> "ProfileSpec":
        return self.replace(seed=seed)

    def with_cpus(self, cpus: int) -> "ProfileSpec":
        """Profile on *cpus* harts (1 = the single-hart fast path)."""
        return self.replace(cpus=cpus)

    def without_fast_paths(self) -> "ProfileSpec":
        """Select every reference path (see :attr:`fast_dispatch`)."""
        return self.replace(fast_dispatch=False)

    def with_analyses(self, *analyses: str) -> "ProfileSpec":
        return self.replace(analyses=tuple(analyses))

    def with_telemetry(self, enabled: bool = True) -> "ProfileSpec":
        """Record structured spans for this run (observability only)."""
        return self.replace(telemetry=enabled)

    def with_roofline(self) -> "ProfileSpec":
        if "roofline" in self.analyses:
            return self
        return self.replace(analyses=self.analyses + ("roofline",))

    def counting(self) -> "ProfileSpec":
        """Counting mode only: ``miniperf stat`` semantics, no samples."""
        return self.replace(analyses=("stat",))

    def with_vendor_driver(self, enabled: bool) -> "ProfileSpec":
        return self.replace(vendor_driver=enabled)

    def without_vendor_driver(self) -> "ProfileSpec":
        """Model a stock kernel without vendor PMU patches."""
        return self.replace(vendor_driver=False)

    def without_vectorizer(self) -> "ProfileSpec":
        return self.replace(enable_vectorizer=False)

    # -- queries ------------------------------------------------------------------------

    @property
    def wants_sampling(self) -> bool:
        return bool({"hotspots", "flamegraph"} & set(self.analyses))

    @property
    def wants_stat(self) -> bool:
        return "stat" in self.analyses

    @property
    def wants_roofline(self) -> bool:
        return "roofline" in self.analyses

    def to_dict(self) -> dict:
        return {
            "events": [event.value for event in self.events],
            "sample_period": self.sample_period,
            "vendor_driver": self.vendor_driver,
            "enable_vectorizer": self.enable_vectorizer,
            "seed": self.seed,
            "invocations": self.invocations,
            "repeats": self.repeats,
            "cpus": self.cpus,
            "fast_dispatch": self.fast_dispatch,
            "analyses": list(self.analyses),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileSpec":
        """Rebuild a spec from its :meth:`to_dict` export (the wire format).

        The round trip is exact: ``ProfileSpec.from_dict(spec.to_dict()) ==
        spec`` for every valid spec, including through a JSON encode/decode
        (events travel by their string values, analyses as a list).  Missing
        keys take the dataclass defaults, so partial dicts -- hand-written
        service requests -- work too; an unknown key raises ``ValueError``
        instead of being silently dropped.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - fields)
        if unknown:
            raise ValueError(
                f"unknown ProfileSpec key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(fields))}"
            )
        kwargs: dict = {key: payload[key] for key in fields & set(payload)}
        if "events" in kwargs:
            kwargs["events"] = tuple(HwEvent(value)
                                     for value in payload["events"])
        if "analyses" in kwargs:
            kwargs["analyses"] = tuple(payload["analyses"])
        return cls(**kwargs)
