"""The SBI PMU (hardware performance monitoring) extension.

This is the interface the kernel's RISC-V PMU driver uses to program counters
it is not privileged to touch itself.  The modelled function set follows the
SBI PMU extension: counter discovery, configure-matching, start, stop and
firmware read.  On configure, the firmware writes the vendor event code into
the corresponding ``mhpmevent`` CSR and clears the counter's
``mcountinhibit`` bit; it also sets the ``mcounteren`` bit so Supervisor mode
can subsequently read the counter without another ecall (the optimisation the
paper mentions in Section 3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cpu.events import HwEvent
from repro.isa.csr import CsrFile
from repro.pmu.unit import PmuUnit
from repro.sbi.firmware import SbiError, SbiExtension, SbiRet

#: SBI PMU extension id (from the SBI specification).
SBI_EXT_PMU = 0x504D55  # "PMU"

# Function ids.
PMU_NUM_COUNTERS = 0
PMU_COUNTER_GET_INFO = 1
PMU_COUNTER_CFG_MATCHING = 2
PMU_COUNTER_START = 3
PMU_COUNTER_STOP = 4
PMU_COUNTER_FW_READ = 5

# Flags for counter_config_matching.
CFG_FLAG_SKIP_MATCH = 1 << 0
CFG_FLAG_CLEAR_VALUE = 1 << 1
CFG_FLAG_AUTO_START = 1 << 2

# Flags for counter_start.
START_FLAG_SET_INIT_VALUE = 1 << 0

# Flags for counter_stop.
STOP_FLAG_RESET = 1 << 0


class SbiPmuExtension(SbiExtension):
    """Firmware-side PMU management for one hart.

    The SBI PMU extension is inherently per-hart: counters, selectors and
    ``mcountinhibit`` live in the hart's own CSR file, so each hart of an SMP
    machine gets its own extension instance bound to its own PMU, identified
    by ``hart_id``.
    """

    extension_id = SBI_EXT_PMU

    def __init__(self, csr: CsrFile, pmu: PmuUnit, hart_id: int = 0):
        self.csr = csr
        self.pmu = pmu
        self.hart_id = hart_id
        #: raw selector code -> HwEvent, built from the PMU's vendor table.
        self._code_to_event: Dict[int, HwEvent] = {
            pmu.event_code(event): event for event in pmu.supported_events()
        }

    # -- dispatch -------------------------------------------------------------

    def handle(self, func_id: int, args: Sequence[int]) -> SbiRet:
        if func_id == PMU_NUM_COUNTERS:
            return SbiRet(SbiError.SUCCESS, len(self.pmu.counter_indices()))
        if func_id == PMU_COUNTER_GET_INFO:
            return self._counter_get_info(args)
        if func_id == PMU_COUNTER_CFG_MATCHING:
            return self._counter_config_matching(args)
        if func_id == PMU_COUNTER_START:
            return self._counter_start(args)
        if func_id == PMU_COUNTER_STOP:
            return self._counter_stop(args)
        if func_id == PMU_COUNTER_FW_READ:
            return self._counter_read(args)
        return SbiRet(SbiError.NOT_SUPPORTED)

    # -- helpers ---------------------------------------------------------------

    def event_for_code(self, code: int) -> Optional[HwEvent]:
        return self._code_to_event.get(code)

    def _counter_get_info(self, args: Sequence[int]) -> SbiRet:
        if not args:
            return SbiRet(SbiError.INVALID_PARAM)
        index = args[0]
        if index not in self.pmu.counter_indices():
            return SbiRet(SbiError.INVALID_PARAM)
        counter = self.pmu.counter(index)
        # Encode "width" and "sampling capable" the way tests need them:
        # value = width_bits | (sampling << 8).
        value = counter.width_bits | (int(counter.supports_sampling) << 8)
        return SbiRet(SbiError.SUCCESS, value)

    def _counter_config_matching(self, args: Sequence[int]) -> SbiRet:
        """args = [counter_base, counter_mask, flags, event_code]."""
        if len(args) < 4:
            return SbiRet(SbiError.INVALID_PARAM)
        counter_base, counter_mask, flags, event_code = args[:4]
        event = self.event_for_code(event_code)
        if event is None:
            return SbiRet(SbiError.NOT_SUPPORTED)

        candidates = self._candidate_indices(counter_base, counter_mask)
        chosen = self._match_counter(event, candidates)
        if chosen is None:
            return SbiRet(SbiError.NOT_SUPPORTED)

        # Program the event selector CSR for generic counters.
        if chosen >= PmuUnit.FIRST_GENERIC_INDEX:
            self.csr.set_event_selector(chosen, event_code)
        self.pmu.configure_counter(chosen, event)
        if flags & CFG_FLAG_CLEAR_VALUE:
            self.pmu.counter(chosen).reset()
            self.csr.set_counter_value(chosen, 0)
        # Delegate direct reads of this counter to Supervisor mode.
        self.csr.delegate_to_supervisor(chosen, True)
        self.csr.set_counter_inhibit(chosen, False)
        if flags & CFG_FLAG_AUTO_START:
            self.pmu.start_counter(chosen)
        return SbiRet(SbiError.SUCCESS, chosen)

    def _candidate_indices(self, base: int, mask: int) -> List[int]:
        implemented = set(self.pmu.counter_indices())
        out = []
        for bit in range(64):
            if mask & (1 << bit):
                index = base + bit
                if index in implemented:
                    out.append(index)
        return out

    def _match_counter(self, event: HwEvent, candidates: List[int]) -> Optional[int]:
        fixed = self.pmu.fixed_counter_for(event)
        if fixed is not None:
            return fixed if fixed in candidates else None
        for index in candidates:
            if index < PmuUnit.FIRST_GENERIC_INDEX:
                continue
            counter = self.pmu.counter(index)
            if counter.event is None and not counter.running:
                return index
        return None

    def _counter_start(self, args: Sequence[int]) -> SbiRet:
        """args = [counter_index, flags, initial_value]."""
        if not args:
            return SbiRet(SbiError.INVALID_PARAM)
        index = args[0]
        flags = args[1] if len(args) > 1 else 0
        initial = args[2] if len(args) > 2 else 0
        if index not in self.pmu.counter_indices():
            return SbiRet(SbiError.INVALID_PARAM)
        counter = self.pmu.counter(index)
        if counter.running:
            return SbiRet(SbiError.ALREADY_STARTED)
        if flags & START_FLAG_SET_INIT_VALUE:
            counter.reset(initial)
            self.csr.set_counter_value(index, initial)
        self.pmu.start_counter(index)
        return SbiRet(SbiError.SUCCESS)

    def _counter_stop(self, args: Sequence[int]) -> SbiRet:
        """args = [counter_index, flags]."""
        if not args:
            return SbiRet(SbiError.INVALID_PARAM)
        index = args[0]
        flags = args[1] if len(args) > 1 else 0
        if index not in self.pmu.counter_indices():
            return SbiRet(SbiError.INVALID_PARAM)
        counter = self.pmu.counter(index)
        if not counter.running:
            return SbiRet(SbiError.ALREADY_STOPPED)
        self.pmu.stop_counter(index)
        if flags & STOP_FLAG_RESET:
            self.pmu.release_counter(index)
        return SbiRet(SbiError.SUCCESS)

    def _counter_read(self, args: Sequence[int]) -> SbiRet:
        if not args:
            return SbiRet(SbiError.INVALID_PARAM)
        index = args[0]
        if index not in self.pmu.counter_indices():
            return SbiRet(SbiError.INVALID_PARAM)
        return SbiRet(SbiError.SUCCESS, self.pmu.read_counter(index))
