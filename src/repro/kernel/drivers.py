"""Architecture PMU drivers.

The ``perf_event`` core is architecture-agnostic; the architecture driver is
what actually programs counters.  Two drivers are modelled:

* :class:`RiscvSbiPmuDriver` -- the upstream RISC-V driver: counter
  configuration goes through SBI ecalls (the kernel cannot write machine-level
  CSRs itself), counter reads use the delegated user/supervisor shadow CSRs
  when ``mcounteren`` allows it and fall back to ``PMU_COUNTER_FW_READ``
  otherwise.  Overflow-interrupt capability is taken from the hardware, so the
  SpacemiT X60 quirk (no sampling on cycles/instret) surfaces here as
  ``EventInitError(EOPNOTSUPP)`` -- exactly the errno real perf reports.
* :class:`X86PmuDriver` -- the comparator platform's driver, which programs
  counters directly (no firmware hop) and supports sampling on everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cpu.events import HwEvent
from repro.isa.csr import CsrFile
from repro.isa.privilege import PrivilegeMode
from repro.pmu.counters import CounterOverflow, SamplingUnsupportedError
from repro.pmu.unit import PmuUnit
from repro.sbi.firmware import OpenSbi, SbiError
from repro.sbi.pmu_ext import (
    CFG_FLAG_CLEAR_VALUE,
    PMU_COUNTER_CFG_MATCHING,
    PMU_COUNTER_FW_READ,
    PMU_COUNTER_START,
    PMU_COUNTER_STOP,
    SBI_EXT_PMU,
    STOP_FLAG_RESET,
)


class EventInitError(Exception):
    """Raised when the driver cannot initialise an event.

    ``errno_name`` mirrors the errno real perf_event_open() would return:
    ``ENOENT`` for an unsupported event, ``EOPNOTSUPP`` when sampling is
    requested but the counter cannot raise overflow interrupts.
    """

    def __init__(self, errno_name: str, message: str):
        super().__init__(message)
        self.errno_name = errno_name


#: Handler invoked by the driver when an armed counter overflows.
DriverOverflowHandler = Callable[[CounterOverflow], None]


@dataclass
class AllocatedCounter:
    """Book-keeping for one hardware counter the driver has claimed."""

    index: int
    event: HwEvent
    base_value: int = 0


class PmuDriver:
    """Interface the perf_event core expects from an architecture driver."""

    #: Human-readable driver name (shows up in diagnostics).
    name = "generic"

    def supports_event(self, event: HwEvent) -> bool:
        raise NotImplementedError

    def event_supports_sampling(self, event: HwEvent) -> bool:
        raise NotImplementedError

    def event_init(self, event: HwEvent, sampling: bool) -> None:
        """Validate that *event* can be counted (and sampled if requested)."""
        raise NotImplementedError

    def add(self, event: HwEvent, sample_period: int = 0,
            overflow_handler: Optional[DriverOverflowHandler] = None) -> AllocatedCounter:
        """Allocate, configure and start a hardware counter for *event*."""
        raise NotImplementedError

    def remove(self, allocated: AllocatedCounter) -> None:
        """Stop and release a previously added counter."""
        raise NotImplementedError

    def read(self, allocated: AllocatedCounter) -> int:
        """Read the current raw value of the counter."""
        raise NotImplementedError


class RiscvSbiPmuDriver(PmuDriver):
    """The RISC-V perf driver: SBI-mediated counter management.

    Parameters
    ----------
    sbi / csr / pmu:
        The firmware, CSR file and PMU of the hart being driven.
    vendor_driver:
        Whether vendor kernel patches are present.  Platforms with no
        upstream support (SpacemiT X60) expose their vendor-specific events
        (the mode-cycle counters) only when this is True; without it the
        driver behaves like a stock kernel that merely counts cycles and
        instructions and cannot sample anything on such parts.
    """

    name = "riscv-sbi-pmu"

    def __init__(self, sbi: OpenSbi, csr: CsrFile, pmu: PmuUnit,
                 vendor_driver: bool = True, hart_id: int = 0):
        self.sbi = sbi
        self.csr = csr
        self.pmu = pmu
        self.vendor_driver = vendor_driver
        #: Which hart's counters this driver instance programs (the real
        #: driver keeps per-CPU state for exactly this reason).
        self.hart_id = hart_id
        self.sbi_read_fallbacks = 0
        self.direct_reads = 0

    # -- capability -------------------------------------------------------------

    def _event_visible(self, event: HwEvent) -> bool:
        if not self.pmu.supports_event(event):
            return False
        if not self.vendor_driver:
            # A stock kernel only knows about the architecturally defined
            # events; vendor-specific raw events need the vendor driver.
            return event.value in (
                "cycles", "instructions", "cache-references", "cache-misses",
                "branch-instructions", "branch-misses",
            )
        return True

    def supports_event(self, event: HwEvent) -> bool:
        return self._event_visible(event)

    def event_supports_sampling(self, event: HwEvent) -> bool:
        if not self._event_visible(event):
            return False
        return self.pmu.event_supports_sampling(event)

    def event_init(self, event: HwEvent, sampling: bool) -> None:
        if not self._event_visible(event):
            raise EventInitError(
                "ENOENT",
                f"{self.pmu.capabilities.core}: event {event.value} is not exposed "
                f"by the {'vendor' if self.vendor_driver else 'upstream'} driver",
            )
        if sampling and not self.pmu.event_supports_sampling(event):
            raise EventInitError(
                "EOPNOTSUPP",
                f"{self.pmu.capabilities.core}: counter for {event.value} cannot "
                "generate overflow interrupts; sampling is not possible",
            )

    # -- counter management ------------------------------------------------------

    def add(self, event: HwEvent, sample_period: int = 0,
            overflow_handler: Optional[DriverOverflowHandler] = None) -> AllocatedCounter:
        self.event_init(event, sampling=sample_period > 0)
        try:
            index = self.pmu.allocate_counter(event, need_sampling=sample_period > 0)
        except SamplingUnsupportedError as exc:
            raise EventInitError("EOPNOTSUPP", str(exc))

        code = self.pmu.event_code(event)
        ret = self.sbi.ecall(
            SBI_EXT_PMU,
            PMU_COUNTER_CFG_MATCHING,
            [index, 1, CFG_FLAG_CLEAR_VALUE, code],
            caller_mode=PrivilegeMode.SUPERVISOR,
        )
        if not ret.ok:
            raise EventInitError(
                "EINVAL", f"SBI counter_config_matching failed: {ret.error.name}"
            )
        chosen = ret.value
        if sample_period > 0 and overflow_handler is not None:
            self.pmu.arm_sampling(chosen, sample_period, overflow_handler)
        start = self.sbi.ecall(
            SBI_EXT_PMU, PMU_COUNTER_START, [chosen, 0, 0],
            caller_mode=PrivilegeMode.SUPERVISOR,
        )
        if not start.ok and start.error is not SbiError.ALREADY_STARTED:
            raise EventInitError("EINVAL", f"SBI counter_start failed: {start.error.name}")
        base = self.pmu.read_counter(chosen)
        return AllocatedCounter(index=chosen, event=event, base_value=base)

    def remove(self, allocated: AllocatedCounter) -> None:
        self.pmu.counter(allocated.index).disarm_sampling()
        self.sbi.ecall(
            SBI_EXT_PMU, PMU_COUNTER_STOP, [allocated.index, STOP_FLAG_RESET],
            caller_mode=PrivilegeMode.SUPERVISOR,
        )

    def read(self, allocated: AllocatedCounter) -> int:
        """Read the counter delta since it was added.

        Prefers the delegated shadow CSR (a direct Supervisor-mode read, no
        ecall); falls back to the SBI firmware read when not delegated.
        """
        index = allocated.index
        raw: int
        if self.csr.supervisor_can_read(index):
            self.direct_reads += 1
            raw = self.pmu.read_counter(index)
        else:
            self.sbi_read_fallbacks += 1
            ret = self.sbi.ecall(
                SBI_EXT_PMU, PMU_COUNTER_FW_READ, [index],
                caller_mode=PrivilegeMode.SUPERVISOR,
            )
            raw = ret.value if ret.ok else 0
        return max(0, raw - allocated.base_value)


class X86PmuDriver(PmuDriver):
    """The comparator platform's driver: direct counter programming, no firmware."""

    name = "x86-core-pmu"

    def __init__(self, pmu: PmuUnit, hart_id: int = 0):
        self.pmu = pmu
        self.hart_id = hart_id

    def supports_event(self, event: HwEvent) -> bool:
        return self.pmu.supports_event(event)

    def event_supports_sampling(self, event: HwEvent) -> bool:
        return self.pmu.supports_event(event) and self.pmu.event_supports_sampling(event)

    def event_init(self, event: HwEvent, sampling: bool) -> None:
        if not self.pmu.supports_event(event):
            raise EventInitError(
                "ENOENT",
                f"{self.pmu.capabilities.core}: event {event.value} is not supported",
            )
        if sampling and not self.pmu.event_supports_sampling(event):
            raise EventInitError(
                "EOPNOTSUPP",
                f"{self.pmu.capabilities.core}: event {event.value} cannot be sampled",
            )

    def add(self, event: HwEvent, sample_period: int = 0,
            overflow_handler: Optional[DriverOverflowHandler] = None) -> AllocatedCounter:
        self.event_init(event, sampling=sample_period > 0)
        try:
            index = self.pmu.allocate_counter(event, need_sampling=sample_period > 0)
        except SamplingUnsupportedError as exc:
            raise EventInitError("EOPNOTSUPP", str(exc))
        self.pmu.configure_counter(index, event)
        if sample_period > 0 and overflow_handler is not None:
            self.pmu.arm_sampling(index, sample_period, overflow_handler)
        self.pmu.start_counter(index)
        return AllocatedCounter(index=index, event=event,
                                base_value=self.pmu.read_counter(index))

    def remove(self, allocated: AllocatedCounter) -> None:
        self.pmu.release_counter(allocated.index)

    def read(self, allocated: AllocatedCounter) -> int:
        return max(0, self.pmu.read_counter(allocated.index) - allocated.base_value)
