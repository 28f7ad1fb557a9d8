"""Privilege modes and trap machinery.

The paper's Figure 1 shows why privilege matters for PMU access: the Linux
kernel runs in Supervisor mode and cannot program machine-level PMU CSRs
(``mhpmevent*``, ``mcountinhibit``) directly.  It must raise an environment
call (``ecall``) into the Machine-mode firmware (OpenSBI), which performs the
privileged access on its behalf.  This module provides the privilege-mode
enumeration and the trap objects used to model that boundary.
"""

from __future__ import annotations

import enum


class PrivilegeMode(enum.IntEnum):
    """RISC-V privilege modes, ordered by increasing privilege."""

    USER = 0
    SUPERVISOR = 1
    # Privilege level 2 is reserved ("hypervisor" in old drafts); unused.
    MACHINE = 3

    @property
    def short_name(self) -> str:
        return {PrivilegeMode.USER: "U",
                PrivilegeMode.SUPERVISOR: "S",
                PrivilegeMode.MACHINE: "M"}[self]

    def can_access(self, required: "PrivilegeMode") -> bool:
        """Return True if code at this mode may access a resource requiring *required*."""
        return int(self) >= int(required)


class TrapCause(enum.Enum):
    """Subset of mcause values relevant to the PMU software stack."""

    ILLEGAL_INSTRUCTION = 2
    ECALL_FROM_U = 8
    ECALL_FROM_S = 9
    ECALL_FROM_M = 11


class Trap(Exception):
    """A synchronous trap raised during execution.

    Used both for genuine error conditions (illegal CSR access from an
    insufficiently privileged mode) and for environment calls into firmware.
    """

    def __init__(self, cause: TrapCause, tval: int = 0, message: str = ""):
        self.cause = cause
        self.tval = tval
        self.message = message
        super().__init__(message or f"trap: {cause.name} (tval={tval:#x})")


def ecall_cause_for_mode(mode: PrivilegeMode) -> TrapCause:
    """Return the trap cause raised by an ``ecall`` executed in *mode*."""
    if mode is PrivilegeMode.USER:
        return TrapCause.ECALL_FROM_U
    if mode is PrivilegeMode.SUPERVISOR:
        return TrapCause.ECALL_FROM_S
    return TrapCause.ECALL_FROM_M
