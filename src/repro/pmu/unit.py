"""The per-core PMU unit: a set of counters plus a capability description.

The unit subscribes to the core's :class:`~repro.cpu.events.EventBus` and
routes every published event increment to the running counters programmed for
that event.  Vendor subclasses (see :mod:`repro.pmu.vendors`) define which
events exist, their raw selector codes, how many generic counters are
implemented, and which counters can raise overflow interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.events import UNBOUNDED, EventBus, HwEvent
from repro.pmu.counters import HardwareCounter, OverflowHandler, SamplingUnsupportedError


@dataclass(frozen=True)
class PmuCapabilities:
    """The capability summary the paper's Table 1 compares across cores."""

    vendor: str
    core: str
    out_of_order: bool
    rvv_version: Optional[str]              # None when vectors are unsupported
    overflow_interrupt_support: str          # "no" | "limited" | "yes"
    upstream_linux: str                      # "yes" | "partial" | "no"
    num_generic_counters: int
    sampling_capable_events: Sequence[HwEvent] = field(default_factory=tuple)

    def as_row(self) -> Dict[str, str]:
        """Render this capability set as a Table-1-style row."""
        return {
            "Core": self.core,
            "Out-of-Order": "Yes" if self.out_of_order else "No",
            "RVV version": self.rvv_version or "Not supported",
            "Overflow interrupt support": self.overflow_interrupt_support.capitalize(),
            "Upstream Linux support": self.upstream_linux.capitalize(),
        }


class PmuUnit:
    """Base class for a core's PMU.

    Parameters
    ----------
    bus:
        The event bus of the core this PMU observes.
    capabilities:
        Static capability description.
    event_codes:
        Mapping from :class:`HwEvent` to the vendor's raw selector code
        (what would be written into ``mhpmevent``).
    fixed_counters_support_sampling:
        Whether the fixed-function counters can raise overflow interrupts.
        This is the knob that is *False* on the SpacemiT X60 and creates the
        need for the paper's workaround.
    generic_counters_support_sampling:
        Whether the generic HPM counters can raise overflow interrupts.
    """

    FIXED_CYCLE_INDEX = 0
    FIXED_INSTRET_INDEX = 2
    FIRST_GENERIC_INDEX = 3

    def __init__(
        self,
        bus: EventBus,
        capabilities: PmuCapabilities,
        event_codes: Dict[HwEvent, int],
        fixed_counters_support_sampling: bool = True,
        generic_counters_support_sampling: bool = True,
    ):
        self.bus = bus
        self.capabilities = capabilities
        self._event_codes = dict(event_codes)
        self._counters: Dict[int, HardwareCounter] = {}

        # The fixed-function counters: mcycle (0) and minstret (2).
        self._fixed_events = {
            self.FIXED_CYCLE_INDEX: HwEvent.CYCLES,
            self.FIXED_INSTRET_INDEX: HwEvent.INSTRUCTIONS,
        }
        for index, event in self._fixed_events.items():
            counter = HardwareCounter(index, fixed_counters_support_sampling)
            counter.configure(event)
            self._counters[index] = counter

        for offset in range(capabilities.num_generic_counters):
            index = self.FIRST_GENERIC_INDEX + offset
            self._counters[index] = HardwareCounter(
                index, generic_counters_support_sampling
            )

        self._dispatch: Dict[HwEvent, List[HardwareCounter]] = {}
        self._rebuild_dispatch()
        bus.subscribe(self._on_event)

    # -- bus integration ----------------------------------------------------------

    def _rebuild_dispatch(self) -> None:
        """Rebuild the event -> counters routing index.

        Every published pulse used to probe all counters; the index narrows
        that to the counters whose selector is programmed with the event
        (usually zero to two).  :meth:`HardwareCounter.count` keeps its own
        event/running guards, so a conservative index can never over-count --
        it only skips counters that would have ignored the pulse anyway.
        Called whenever a selector is (re)programmed or released.
        """
        index: Dict[HwEvent, List[HardwareCounter]] = {}
        for counter_index in sorted(self._counters):
            counter = self._counters[counter_index]
            if counter.event is not None:
                index.setdefault(counter.event, []).append(counter)
        self._dispatch = index

    def _on_event(self, event: HwEvent, amount: int) -> None:
        counters = self._dispatch.get(event)
        if counters:
            for counter in counters:
                counter.count(event, amount)

    def overflow_horizon(self, mode_cycle_event: HwEvent) -> Tuple[int, int]:
        """Pulses retirement may publish before the nearest armed overflow.

        ``(cycles, instructions)`` over the running, armed counters, where
        ``CYCLES`` and *mode_cycle_event* (the current privilege mode's cycle
        event) count as cycles and an unwatched axis is :data:`UNBOUNDED`.
        An armed counter on any other event cannot be bounded ahead of time:
        the horizon is then ``(0, 0)``, i.e. any op may overflow.
        """
        cycles = instructions = UNBOUNDED
        for counter in self._counters.values():
            if counter.running and counter.sampling_armed:
                event, left = counter.event, counter.pulses_to_overflow
                if event is HwEvent.CYCLES or event is mode_cycle_event:
                    cycles = min(cycles, left)
                elif event is HwEvent.INSTRUCTIONS:
                    instructions = min(instructions, left)
                else:
                    return 0, 0
        return cycles, instructions

    # -- capability queries ----------------------------------------------------------

    def supported_events(self) -> List[HwEvent]:
        return sorted(self._event_codes.keys(), key=lambda e: e.value)

    def supports_event(self, event: HwEvent) -> bool:
        return event in self._event_codes

    def event_code(self, event: HwEvent) -> int:
        """Raw ``mhpmevent`` selector code for *event*."""
        try:
            return self._event_codes[event]
        except KeyError:
            raise KeyError(f"{self.capabilities.core} does not expose event {event.value}")

    def counter_indices(self) -> List[int]:
        return sorted(self._counters)

    def counter(self, index: int) -> HardwareCounter:
        return self._counters[index]

    def fixed_counter_for(self, event: HwEvent) -> Optional[int]:
        for index, fixed_event in self._fixed_events.items():
            if fixed_event is event:
                return index
        return None

    def event_supports_sampling(self, event: HwEvent) -> bool:
        """Can *event* be sampled on this PMU on at least one counter?

        A fixed-function event can be sampled only if its fixed counter
        supports overflow interrupts; any other supported event can be sampled
        whenever the generic counters support overflow interrupts.
        """
        if not self.supports_event(event):
            return False
        fixed_index = self.fixed_counter_for(event)
        if fixed_index is not None:
            return self._counters[fixed_index].supports_sampling
        generic = [
            c for i, c in self._counters.items() if i >= self.FIRST_GENERIC_INDEX
        ]
        return any(c.supports_sampling for c in generic)

    # -- counter allocation (used by the kernel driver) -------------------------------

    def allocate_counter(self, event: HwEvent, need_sampling: bool) -> int:
        """Pick a hardware counter able to count *event*.

        Fixed-function events go to their fixed counter.  Other events take
        the lowest-numbered free generic counter.  When *need_sampling* is set
        the chosen counter must support overflow interrupts, otherwise
        :class:`SamplingUnsupportedError` is raised -- this is exactly the
        failure the standard ``perf`` flow hits on the X60.
        """
        if not self.supports_event(event):
            raise KeyError(f"{self.capabilities.core} does not expose event {event.value}")
        fixed_index = self.fixed_counter_for(event)
        if fixed_index is not None:
            counter = self._counters[fixed_index]
            if need_sampling and not counter.supports_sampling:
                raise SamplingUnsupportedError(
                    f"{self.capabilities.core}: fixed counter for {event.value} "
                    "cannot generate overflow interrupts"
                )
            return fixed_index
        for index in sorted(self._counters):
            if index < self.FIRST_GENERIC_INDEX:
                continue
            counter = self._counters[index]
            if counter.running or counter.event is not None:
                continue
            if need_sampling and not counter.supports_sampling:
                continue
            return index
        if need_sampling:
            raise SamplingUnsupportedError(
                f"{self.capabilities.core}: no sampling-capable generic counter available"
            )
        raise RuntimeError(f"{self.capabilities.core}: all generic counters are busy")

    def configure_counter(self, index: int, event: HwEvent) -> None:
        self._counters[index].configure(event)
        self._rebuild_dispatch()

    def release_counter(self, index: int) -> None:
        counter = self._counters[index]
        counter.stop()
        counter.disarm_sampling()
        counter.reset()
        if index not in self._fixed_events:
            counter.event = None
            self._rebuild_dispatch()

    def start_counter(self, index: int) -> None:
        self._counters[index].start()

    def stop_counter(self, index: int) -> None:
        self._counters[index].stop()

    def read_counter(self, index: int) -> int:
        return self._counters[index].read()

    def arm_sampling(self, index: int, period: int, handler: OverflowHandler) -> None:
        self._counters[index].arm_sampling(period, handler)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(core={self.capabilities.core!r}, "
            f"counters={len(self._counters)})"
        )
