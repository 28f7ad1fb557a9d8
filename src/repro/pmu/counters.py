"""Individual hardware performance counters.

A :class:`HardwareCounter` models one ``mhpmcounter`` (or the fixed
``mcycle``/``minstret`` pair): it accumulates pulses of the event its selector
is programmed with, and -- when the hardware supports it and sampling is armed
-- raises an overflow notification every ``sample_period`` pulses, which is
what drives sampling-based profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cpu.events import HwEvent


class SamplingUnsupportedError(Exception):
    """Raised when sampling is requested on a counter that cannot overflow-interrupt.

    This is the hardware condition at the heart of the paper's SpacemiT X60
    workaround: ``mcycle``/``minstret`` on that part count fine but cannot
    generate overflow interrupts, so the kernel refuses to sample them
    directly (the perf syscall returns ``EOPNOTSUPP``).
    """


@dataclass
class CounterOverflow:
    """Description of one overflow occurrence passed to the handler."""

    counter_index: int
    event: HwEvent
    count_at_overflow: int
    period: int


#: Signature of the overflow handler installed by the kernel driver.
OverflowHandler = Callable[[CounterOverflow], None]


class HardwareCounter:
    """One hardware performance counter.

    Parameters
    ----------
    index:
        The architectural counter index (0 = cycle, 2 = instret, 3..31 = HPM).
    supports_sampling:
        Whether the silicon can raise an overflow interrupt from this counter
        (i.e. whether the Sscofpmf overflow path is wired up for it).
    width_bits:
        Counter width; values wrap at this width like hardware.
    """

    def __init__(self, index: int, supports_sampling: bool, width_bits: int = 64):
        if width_bits <= 0 or width_bits > 64:
            raise ValueError("width_bits must be in (0, 64]")
        self.index = index
        self.supports_sampling = supports_sampling
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1

        self.event: Optional[HwEvent] = None
        self.running = False
        self.value = 0

        self._sample_period = 0
        self._since_overflow = 0
        self._overflow_handler: Optional[OverflowHandler] = None

    # -- configuration -------------------------------------------------------

    def configure(self, event: HwEvent) -> None:
        """Program the event selector for this counter."""
        self.event = event

    def arm_sampling(self, period: int, handler: OverflowHandler) -> None:
        """Arm overflow notification every *period* event pulses.

        Raises :class:`SamplingUnsupportedError` if the silicon cannot raise
        overflow interrupts from this counter.
        """
        if not self.supports_sampling:
            raise SamplingUnsupportedError(
                f"counter {self.index} cannot generate overflow interrupts"
            )
        if period <= 0:
            raise ValueError("sample period must be positive")
        self._sample_period = period
        self._since_overflow = 0
        self._overflow_handler = handler

    def disarm_sampling(self) -> None:
        self._sample_period = 0
        self._since_overflow = 0
        self._overflow_handler = None

    @property
    def sampling_armed(self) -> bool:
        return self._sample_period > 0 and self._overflow_handler is not None

    @property
    def sample_period(self) -> int:
        return self._sample_period

    @property
    def pulses_to_overflow(self) -> int:
        """Pulses left until the next overflow (>= 1 while sampling is armed)."""
        return self._sample_period - self._since_overflow

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    def reset(self, value: int = 0) -> None:
        self.value = value & self._mask
        self._since_overflow = 0

    def read(self) -> int:
        return self.value

    # -- counting ----------------------------------------------------------------

    def count(self, event: HwEvent, amount: int) -> int:
        """Accumulate *amount* pulses of *event* if this counter tracks it.

        Pulses may arrive one at a time or in coalesced chunks (the core's
        batched retirement publishes one increment per event per chunk); the
        overflow loop below handles both identically, raising one
        notification per period boundary the increment crosses.

        Returns the number of overflow notifications raised (0 almost always;
        can exceed 1 when a single large increment spans several periods).
        """
        if not self.running or self.event is not event or amount <= 0:
            return 0
        self.value = (self.value + amount) & self._mask
        if self._sample_period <= 0 or self._overflow_handler is None:
            return 0
        self._since_overflow += amount
        overflows = 0
        while self._since_overflow >= self._sample_period:
            self._since_overflow -= self._sample_period
            overflows += 1
            handler = self._overflow_handler
            if handler is not None:
                handler(
                    CounterOverflow(
                        counter_index=self.index,
                        event=self.event,
                        count_at_overflow=self.value,
                        period=self._sample_period,
                    )
                )
        return overflows

    def __repr__(self) -> str:
        event = self.event.value if self.event else "<unprogrammed>"
        state = "running" if self.running else "stopped"
        return (
            f"HardwareCounter(idx={self.index}, event={event}, {state}, "
            f"value={self.value}, sampling={'on' if self.sampling_armed else 'off'})"
        )
