"""Control and Status Register (CSR) file with privilege-checked access.

Implements the hardware performance-monitoring CSRs defined by the RISC-V
Privileged Specification that the paper's Section 3 describes:

* ``mcycle`` / ``minstret`` -- machine cycle and instructions-retired counters.
* ``mhpmcounter3..31`` -- generic hardware performance monitor counters.
* ``mhpmevent3..31`` -- the event selectors programmed with vendor-specific
  event codes.
* ``mcountinhibit`` -- per-counter inhibit bits.
* ``mcounteren`` / ``scounteren`` -- delegation of counter *read* access to
  lower privilege modes, which is what lets the kernel read HPM counters
  directly from Supervisor mode without an SBI round-trip.
* ``mvendorid`` / ``marchid`` / ``mimpid`` / ``mhartid`` -- the identification
  registers miniperf uses instead of perf event discovery.

The model enforces the privilege rules that make the OpenSBI hop necessary:
machine-level CSRs may only be written from Machine mode, and the shadow
``cycle``/``instret``/``hpmcounterN`` user-level aliases are readable from
S/U mode only when the corresponding ``mcounteren``/``scounteren`` bit is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa.privilege import PrivilegeMode

MASK64 = (1 << 64) - 1

# Machine-level CSR addresses (from the privileged spec).
CSR_MVENDORID = 0xF11
CSR_MARCHID = 0xF12
CSR_MIMPID = 0xF13
CSR_MHARTID = 0xF14

CSR_MCOUNTINHIBIT = 0x320
CSR_MCOUNTEREN = 0x306
CSR_SCOUNTEREN = 0x106

CSR_MCYCLE = 0xB00
CSR_MINSTRET = 0xB02
CSR_MHPMCOUNTER_BASE = 0xB00      # mhpmcounterN lives at 0xB00 + N
CSR_MHPMEVENT_BASE = 0x320        # mhpmeventN lives at 0x320 + N

# User-level read-only shadows.
CSR_CYCLE = 0xC00
CSR_TIME = 0xC01
CSR_INSTRET = 0xC02
CSR_HPMCOUNTER_BASE = 0xC00       # hpmcounterN lives at 0xC00 + N

#: Index (in mcountinhibit / mcounteren bit position terms) of mcycle.
COUNTER_INDEX_CYCLE = 0
#: Index of the `time` counter (not implemented as a hardware counter here).
COUNTER_INDEX_TIME = 1
#: Index of minstret.
COUNTER_INDEX_INSTRET = 2
#: First generic HPM counter index.
HPM_FIRST_INDEX = 3
#: Last generic HPM counter index (inclusive).
HPM_LAST_INDEX = 31


class CsrAccessError(Exception):
    """Raised on privilege violations or accesses to unimplemented CSRs."""

    def __init__(self, message: str, address: int = 0):
        super().__init__(message)
        self.address = address


def hpm_counter_csr(index: int) -> int:
    """CSR address of ``mhpmcounter<index>`` (index 3..31)."""
    _check_hpm_index(index)
    return CSR_MHPMCOUNTER_BASE + index


def hpm_event_csr(index: int) -> int:
    """CSR address of ``mhpmevent<index>`` (index 3..31)."""
    _check_hpm_index(index)
    return CSR_MHPMEVENT_BASE + index


def user_counter_csr(index: int) -> int:
    """CSR address of the user-level shadow ``hpmcounter<index>``."""
    if index == COUNTER_INDEX_CYCLE:
        return CSR_CYCLE
    if index == COUNTER_INDEX_INSTRET:
        return CSR_INSTRET
    _check_hpm_index(index)
    return CSR_HPMCOUNTER_BASE + index


def _check_hpm_index(index: int) -> None:
    if not HPM_FIRST_INDEX <= index <= HPM_LAST_INDEX:
        raise ValueError(f"HPM counter index must be in [3, 31], got {index}")


@dataclass(frozen=True)
class CpuIdentity:
    """The values of the identification CSRs for one hart.

    miniperf identifies hardware solely from these registers (Section 3.3 of
    the paper), which is why they are first-class here.
    """

    mvendorid: int
    marchid: int
    mimpid: int
    mhartid: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "mvendorid": self.mvendorid,
            "marchid": self.marchid,
            "mimpid": self.mimpid,
            "mhartid": self.mhartid,
        }


class CsrFile:
    """A privilege-checked CSR register file for a single hart.

    Parameters
    ----------
    identity:
        The identification register values.
    num_hpm_counters:
        How many of the generic ``mhpmcounter3..31`` registers are actually
        implemented (the count is implementation-defined; unimplemented ones
        read as zero and ignore writes, mirroring common silicon behaviour).
    """

    def __init__(self, identity: CpuIdentity, num_hpm_counters: int = 29):
        if not 0 <= num_hpm_counters <= 29:
            raise ValueError("num_hpm_counters must be in [0, 29]")
        self._identity = identity
        self._num_hpm = num_hpm_counters
        self._regs: Dict[int, int] = {
            CSR_MVENDORID: identity.mvendorid & MASK64,
            CSR_MARCHID: identity.marchid & MASK64,
            CSR_MIMPID: identity.mimpid & MASK64,
            CSR_MHARTID: identity.mhartid & MASK64,
            CSR_MCOUNTINHIBIT: 0,
            CSR_MCOUNTEREN: 0,
            CSR_SCOUNTEREN: 0,
            CSR_MCYCLE: 0,
            CSR_MINSTRET: 0,
        }
        for idx in range(HPM_FIRST_INDEX, HPM_FIRST_INDEX + num_hpm_counters):
            self._regs[hpm_counter_csr(idx)] = 0
            self._regs[hpm_event_csr(idx)] = 0

    # -- identity ----------------------------------------------------------

    @property
    def identity(self) -> CpuIdentity:
        return self._identity

    @property
    def num_hpm_counters(self) -> int:
        return self._num_hpm

    # -- raw access (machine mode / firmware) -------------------------------

    def read(self, address: int, mode: PrivilegeMode = PrivilegeMode.MACHINE) -> int:
        """Read a CSR, enforcing the privilege rules for *mode*."""
        if address in (CSR_MVENDORID, CSR_MARCHID, CSR_MIMPID, CSR_MHARTID):
            if mode is not PrivilegeMode.MACHINE:
                raise CsrAccessError(
                    f"identification CSR {address:#x} requires Machine mode", address
                )
            return self._regs[address]

        if self._is_machine_counter_csr(address) or self._is_machine_control_csr(address):
            if mode is not PrivilegeMode.MACHINE:
                raise CsrAccessError(
                    f"machine-level CSR {address:#x} requires Machine mode "
                    f"(attempted from {mode.short_name}-mode)",
                    address,
                )
            return self._regs.get(address, 0)

        if self._is_user_shadow_csr(address):
            return self._read_user_shadow(address, mode)

        raise CsrAccessError(f"unimplemented CSR {address:#x}", address)

    def write(self, address: int, value: int,
              mode: PrivilegeMode = PrivilegeMode.MACHINE) -> None:
        """Write a CSR, enforcing the privilege rules for *mode*."""
        if address in (CSR_MVENDORID, CSR_MARCHID, CSR_MIMPID, CSR_MHARTID):
            raise CsrAccessError(
                f"identification CSR {address:#x} is read-only", address
            )
        if self._is_user_shadow_csr(address):
            raise CsrAccessError(
                f"user-level shadow CSR {address:#x} is read-only", address
            )
        if self._is_machine_counter_csr(address) or self._is_machine_control_csr(address):
            if mode is not PrivilegeMode.MACHINE:
                raise CsrAccessError(
                    f"machine-level CSR {address:#x} requires Machine mode "
                    f"(attempted from {mode.short_name}-mode)",
                    address,
                )
            if address not in self._regs:
                # Unimplemented HPM counter/event: writes are ignored.
                return
            self._regs[address] = value & MASK64
            return
        raise CsrAccessError(f"unimplemented CSR {address:#x}", address)

    # -- counter helpers -----------------------------------------------------

    def counter_value(self, index: int) -> int:
        """Read a hardware counter by index (0=cycle, 2=instret, 3..31=hpm)."""
        return self._regs.get(self._counter_csr(index), 0)

    def set_counter_value(self, index: int, value: int) -> None:
        """Set a hardware counter by index (firmware/hardware-internal path)."""
        csr = self._counter_csr(index)
        if csr in self._regs:
            self._regs[csr] = value & MASK64

    def increment_counter(self, index: int, amount: int) -> int:
        """Increment a hardware counter, honouring ``mcountinhibit``.

        Returns the new value.  Wraps at 64 bits like hardware.
        """
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if self.counter_inhibited(index):
            return self.counter_value(index)
        csr = self._counter_csr(index)
        if csr not in self._regs:
            return 0
        self._regs[csr] = (self._regs[csr] + amount) & MASK64
        return self._regs[csr]

    def counter_inhibited(self, index: int) -> bool:
        """Return True when bit *index* of ``mcountinhibit`` is set."""
        return bool((self._regs[CSR_MCOUNTINHIBIT] >> index) & 1)

    def set_counter_inhibit(self, index: int, inhibit: bool) -> None:
        cur = self._regs[CSR_MCOUNTINHIBIT]
        if inhibit:
            cur |= 1 << index
        else:
            cur &= ~(1 << index)
        self._regs[CSR_MCOUNTINHIBIT] = cur & MASK64

    def event_selector(self, index: int) -> int:
        """Read ``mhpmevent<index>`` (the vendor event code)."""
        return self._regs.get(hpm_event_csr(index), 0)

    def set_event_selector(self, index: int, event_code: int) -> None:
        csr = hpm_event_csr(index)
        if csr in self._regs:
            self._regs[csr] = event_code & MASK64

    # -- delegation ----------------------------------------------------------

    def delegate_to_supervisor(self, index: int, allow: bool = True) -> None:
        """Set/clear bit *index* of ``mcounteren``.

        When set, Supervisor mode may read the user-level shadow of that
        counter directly -- the optimisation the kernel requests via SBI to
        avoid per-read ecalls.
        """
        cur = self._regs[CSR_MCOUNTEREN]
        if allow:
            cur |= 1 << index
        else:
            cur &= ~(1 << index)
        self._regs[CSR_MCOUNTEREN] = cur & MASK64

    def delegate_to_user(self, index: int, allow: bool = True) -> None:
        """Set/clear bit *index* of ``scounteren`` (S-mode delegating to U-mode)."""
        cur = self._regs[CSR_SCOUNTEREN]
        if allow:
            cur |= 1 << index
        else:
            cur &= ~(1 << index)
        self._regs[CSR_SCOUNTEREN] = cur & MASK64

    def supervisor_can_read(self, index: int) -> bool:
        return bool((self._regs[CSR_MCOUNTEREN] >> index) & 1)

    def user_can_read(self, index: int) -> bool:
        return self.supervisor_can_read(index) and bool(
            (self._regs[CSR_SCOUNTEREN] >> index) & 1
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _counter_csr(index: int) -> int:
        if index == COUNTER_INDEX_CYCLE:
            return CSR_MCYCLE
        if index == COUNTER_INDEX_INSTRET:
            return CSR_MINSTRET
        return hpm_counter_csr(index)

    @staticmethod
    def _is_machine_counter_csr(address: int) -> bool:
        return CSR_MCYCLE <= address <= CSR_MHPMCOUNTER_BASE + HPM_LAST_INDEX

    @staticmethod
    def _is_machine_control_csr(address: int) -> bool:
        if address == CSR_MCOUNTEREN:
            return True
        # mcountinhibit (0x320) doubles as mhpmevent base; addresses
        # 0x320..0x33F cover mcountinhibit + all event selectors.
        return CSR_MCOUNTINHIBIT <= address <= CSR_MHPMEVENT_BASE + HPM_LAST_INDEX

    @staticmethod
    def _is_user_shadow_csr(address: int) -> bool:
        return CSR_CYCLE <= address <= CSR_HPMCOUNTER_BASE + HPM_LAST_INDEX

    def _read_user_shadow(self, address: int, mode: PrivilegeMode) -> int:
        index = address - CSR_HPMCOUNTER_BASE
        if index == COUNTER_INDEX_TIME:
            raise CsrAccessError("the time CSR is not modelled", address)
        if mode is PrivilegeMode.MACHINE:
            pass  # machine mode can always read shadows
        elif mode is PrivilegeMode.SUPERVISOR:
            if not self.supervisor_can_read(index):
                raise CsrAccessError(
                    f"counter {index} not delegated to S-mode (mcounteren bit clear)",
                    address,
                )
        else:
            if not self.user_can_read(index):
                raise CsrAccessError(
                    f"counter {index} not delegated to U-mode", address
                )
        return self.counter_value(index)
