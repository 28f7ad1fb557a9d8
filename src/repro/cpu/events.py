"""Hardware event taxonomy and the event bus connecting cores to the PMU.

The PMU never looks inside the core: it observes a stream of *event
increments* published on an :class:`EventBus`.  This mirrors how real HPM
counters are wired -- an ``mhpmevent`` selector picks one event signal, and the
corresponding counter accumulates its pulses.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Callable, Dict, Iterable, List


class HwEvent(enum.Enum):
    """Microarchitectural events that counters can be programmed to track.

    The first group corresponds to the Linux ``PERF_TYPE_HARDWARE`` generic
    events; the second group are vendor-specific events that only exist on
    some cores (notably the SpacemiT X60's per-privilege-mode cycle counters,
    which are central to the paper's sampling workaround).
    """

    # Generic events (perf "hardware" events).
    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    CACHE_REFERENCES = "cache-references"
    CACHE_MISSES = "cache-misses"
    BRANCH_INSTRUCTIONS = "branch-instructions"
    BRANCH_MISSES = "branch-misses"
    STALLED_CYCLES_FRONTEND = "stalled-cycles-frontend"
    STALLED_CYCLES_BACKEND = "stalled-cycles-backend"

    # Cache / memory detail events.
    L1D_LOADS = "L1-dcache-loads"
    L1D_LOAD_MISSES = "L1-dcache-load-misses"
    L1D_STORES = "L1-dcache-stores"
    L1D_STORE_MISSES = "L1-dcache-store-misses"
    L2_REFERENCES = "l2-references"
    L2_MISSES = "l2-misses"
    DRAM_READ_BYTES = "dram-read-bytes"
    DRAM_WRITE_BYTES = "dram-write-bytes"

    # Instruction-mix events.
    FP_OPS_RETIRED = "fp-ops-retired"
    INT_OPS_RETIRED = "int-ops-retired"
    VECTOR_OPS_RETIRED = "vector-ops-retired"
    LOADS_RETIRED = "loads-retired"
    STORES_RETIRED = "stores-retired"

    # Vendor-specific: SpacemiT X60 per-privilege-mode cycle counters.
    # These are the non-standard, sampling-capable counters the workaround
    # relies upon (Section 3.3 of the paper).
    U_MODE_CYCLE = "u_mode_cycle"
    S_MODE_CYCLE = "s_mode_cycle"
    M_MODE_CYCLE = "m_mode_cycle"


class EventCounts:
    """A bag of event counts: ``HwEvent -> int``.

    Used both as the accumulation target of the event bus and as the return
    value of PMU reads.
    """

    def __init__(self, initial: Dict[HwEvent, int] = None):
        self._counts: Dict[HwEvent, int] = defaultdict(int)
        if initial:
            for event, count in initial.items():
                self._counts[event] = int(count)

    def add(self, event: HwEvent, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("event increments must be non-negative")
        self._counts[event] += amount

    def get(self, event: HwEvent) -> int:
        return self._counts.get(event, 0)

    def merge(self, other: "EventCounts") -> "EventCounts":
        merged = EventCounts(dict(self._counts))
        for event, count in other._counts.items():
            merged._counts[event] += count
        return merged

    def as_dict(self) -> Dict[HwEvent, int]:
        return dict(self._counts)

    def __getitem__(self, event: HwEvent) -> int:
        return self.get(event)

    def __iter__(self):
        return iter(self._counts.items())

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.value}={c}" for e, c in sorted(
            self._counts.items(), key=lambda kv: kv[0].value))
        return f"EventCounts({inner})"


#: Signature of event-bus subscribers: (event, amount) -> None.
EventObserver = Callable[[HwEvent, int], None]

#: A pulse count larger than any run can publish: the overflow horizon of an
#: event no armed counter watches (see ``PmuUnit.overflow_horizon``).
UNBOUNDED = 1 << 62


class EventBus:
    """Publish/subscribe channel for hardware event increments.

    Cores publish increments; the PMU (and any diagnostic listener) subscribes.
    The bus also keeps its own global :class:`EventCounts` so tests and
    benches can ask "how many cycles did this run take" without going through
    the PMU at all.
    """

    def __init__(self) -> None:
        self._observers: List[EventObserver] = []
        self.totals = EventCounts()

    def subscribe(self, observer: EventObserver) -> None:
        self._observers.append(observer)

    def publish(self, event: HwEvent, amount: int = 1) -> None:
        if amount == 0:
            return
        self.totals.add(event, amount)
        for observer in self._observers:
            observer(event, amount)

    def publish_many(self, increments: Iterable) -> None:
        """Publish an iterable of ``(event, amount)`` pairs."""
        for event, amount in increments:
            self.publish(event, amount)
