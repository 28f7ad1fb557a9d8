"""CPU identification by identification registers.

Section 3.3 of the paper: "rather than utilizing standard perf event
discovery mechanisms, [miniperf] relies solely on CPU identification
registers. This direct hardware identification enables more robust management
of supported features and platform-specific workarounds."

The table below is miniperf's quirk database, keyed by ``mvendorid``.  Each
entry records whether the part needs the group-leader sampling workaround and
which vendor event can serve as the sampling leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cpu.events import HwEvent
from repro.isa.csr import CpuIdentity
from repro.platforms.machine import Machine
from repro.pmu.vendors import (
    INTEL_SYNTHETIC_VENDORID,
    SIFIVE_MVENDORID,
    SPACEMIT_MVENDORID,
    THEAD_MVENDORID,
)


@dataclass(frozen=True)
class CpuInfo:
    """What miniperf knows about one CPU after identification."""

    vendor: str
    core: str
    identity: CpuIdentity
    #: Events that can be sampled directly (leader themselves).
    direct_sampling_events: Tuple[HwEvent, ...]
    #: True when cycles/instructions cannot be sampled directly and a vendor
    #: event must lead the group (the X60 workaround).
    needs_group_leader_workaround: bool
    #: The vendor event to use as sampling group leader when the workaround
    #: applies (None when sampling is impossible altogether).
    workaround_leader_event: Optional[HwEvent] = None
    notes: str = ""

    @property
    def sampling_possible(self) -> bool:
        return bool(self.direct_sampling_events) or (
            self.needs_group_leader_workaround
            and self.workaround_leader_event is not None
        )


#: miniperf's built-in quirk database, keyed by mvendorid.
KNOWN_CPUS: Dict[int, CpuInfo] = {
    SIFIVE_MVENDORID: CpuInfo(
        vendor="SiFive",
        core="SiFive U74",
        identity=CpuIdentity(SIFIVE_MVENDORID, 0, 0),
        direct_sampling_events=(),
        needs_group_leader_workaround=False,
        workaround_leader_event=None,
        notes="No overflow interrupts at all; only counting mode works.",
    ),
    THEAD_MVENDORID: CpuInfo(
        vendor="T-Head",
        core="T-Head C910",
        identity=CpuIdentity(THEAD_MVENDORID, 0, 0),
        direct_sampling_events=(HwEvent.CYCLES, HwEvent.INSTRUCTIONS),
        needs_group_leader_workaround=False,
        notes="Full sampling support, but requires the vendor kernel.",
    ),
    SPACEMIT_MVENDORID: CpuInfo(
        vendor="SpacemiT",
        core="SpacemiT X60",
        identity=CpuIdentity(SPACEMIT_MVENDORID, 0, 0),
        direct_sampling_events=(),
        needs_group_leader_workaround=True,
        workaround_leader_event=HwEvent.U_MODE_CYCLE,
        notes=(
            "mcycle/minstret cannot raise overflow interrupts; u/s/m_mode_cycle "
            "can, so one of them leads the sampling group."
        ),
    ),
    INTEL_SYNTHETIC_VENDORID: CpuInfo(
        vendor="Intel",
        core="Intel Core i5-1135G7",
        identity=CpuIdentity(INTEL_SYNTHETIC_VENDORID, 0, 0),
        direct_sampling_events=(HwEvent.CYCLES, HwEvent.INSTRUCTIONS),
        needs_group_leader_workaround=False,
        notes="Mature PMU; everything samples directly.",
    ),
}


class UnknownCpuError(Exception):
    """Raised when the identification registers match no database entry."""


def identify(identity: CpuIdentity) -> CpuInfo:
    """Identify a CPU from its identification-register values."""
    info = KNOWN_CPUS.get(identity.mvendorid)
    if info is None:
        raise UnknownCpuError(
            f"mvendorid {identity.mvendorid:#x} is not in miniperf's database; "
            "falling back to perf event discovery is exactly what miniperf avoids"
        )
    # Return an entry carrying the *actual* identity values read from the hart.
    return CpuInfo(
        vendor=info.vendor,
        core=info.core,
        identity=identity,
        direct_sampling_events=info.direct_sampling_events,
        needs_group_leader_workaround=info.needs_group_leader_workaround,
        workaround_leader_event=info.workaround_leader_event,
        notes=info.notes,
    )


def identify_machine(machine: Machine) -> CpuInfo:
    """Identify the CPU of a machine model.

    On real hardware this information reaches user space through
    ``/proc/cpuinfo`` (the kernel reads the CSRs via SBI at boot); the model
    short-circuits that plumbing and reads the same identity values.
    """
    return identify(machine.descriptor.identity)
