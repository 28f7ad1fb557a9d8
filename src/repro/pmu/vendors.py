"""Vendor-specific PMU implementations and quirks.

The four cores the paper studies differ exactly where it hurts (Table 1):

=================  ==========  ============  ============  ==============
Property           SiFive U74  T-Head C910   SpacemiT X60  Intel i5-1135G7
=================  ==========  ============  ============  ==============
Out-of-order       No          Yes           No            Yes
RVV version        --          0.7.1         1.0           (AVX2)
Overflow IRQ       No          Yes           Limited       Yes
Upstream Linux     Yes         Partial       No            Yes
=================  ==========  ============  ============  ==============

"Limited" on the X60 means: the fixed cycle / instret counters cannot raise
overflow interrupts, but three vendor-specific events (``u_mode_cycle``,
``s_mode_cycle``, ``m_mode_cycle``) counted on generic HPM counters can.
That asymmetry is what the paper's miniperf workaround exploits.
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.events import EventBus, HwEvent
from repro.isa.csr import CpuIdentity
from repro.pmu.unit import PmuCapabilities, PmuUnit

# JEDEC-style vendor ids used by the identification CSRs.  The values are the
# ones real parts report (SiFive 0x489, T-Head 0x5b7, SpacemiT 0x710) so the
# miniperf cpuid tables look like the real thing; the Intel comparator gets a
# synthetic id since x86 has no mvendorid.
SIFIVE_MVENDORID = 0x489
THEAD_MVENDORID = 0x5B7
SPACEMIT_MVENDORID = 0x710
INTEL_SYNTHETIC_VENDORID = 0x8086

U74_MARCHID = 0x8000000000000007
C910_MARCHID = 0x0000000000000910
X60_MARCHID = 0x8000000058000060
TIGERLAKE_MARCHID = 0x000806C1  # family/model/stepping style value

U74_IDENTITY = CpuIdentity(SIFIVE_MVENDORID, U74_MARCHID, 0x20181004)
C910_IDENTITY = CpuIdentity(THEAD_MVENDORID, C910_MARCHID, 0x1000000049772200)
X60_IDENTITY = CpuIdentity(SPACEMIT_MVENDORID, X60_MARCHID, 0x1000000020230910)
TIGERLAKE_IDENTITY = CpuIdentity(INTEL_SYNTHETIC_VENDORID, TIGERLAKE_MARCHID, 0x1)


_COMMON_RISCV_EVENTS: Dict[HwEvent, int] = {
    HwEvent.CYCLES: 0x01,
    HwEvent.INSTRUCTIONS: 0x02,
    HwEvent.CACHE_REFERENCES: 0x10,
    HwEvent.CACHE_MISSES: 0x11,
    HwEvent.BRANCH_INSTRUCTIONS: 0x12,
    HwEvent.BRANCH_MISSES: 0x13,
    HwEvent.L1D_LOADS: 0x20,
    HwEvent.L1D_LOAD_MISSES: 0x21,
    HwEvent.L1D_STORES: 0x22,
    HwEvent.L1D_STORE_MISSES: 0x23,
    HwEvent.LOADS_RETIRED: 0x24,
    HwEvent.STORES_RETIRED: 0x25,
}


class SiFiveU74Pmu(PmuUnit):
    """SiFive U74: in-order, no vector unit, no overflow interrupts at all.

    Good upstream Linux support, but sampling-based profiling is architecturally
    impossible: every ``perf record`` attempt fails.
    """

    CAPABILITIES = PmuCapabilities(
        vendor="SiFive",
        core="SiFive U74",
        out_of_order=False,
        rvv_version=None,
        overflow_interrupt_support="no",
        upstream_linux="yes",
        num_generic_counters=2,
        sampling_capable_events=(),
    )

    def __init__(self, bus: EventBus):
        events = dict(_COMMON_RISCV_EVENTS)
        super().__init__(
            bus,
            self.CAPABILITIES,
            events,
            fixed_counters_support_sampling=False,
            generic_counters_support_sampling=False,
        )


class TheadC910Pmu(PmuUnit):
    """T-Head C910: out-of-order, RVV 0.7.1, full overflow-interrupt support.

    The catch is software, not hardware: the part needs vendor kernel patches
    ("partial" upstream support), which our kernel driver models as a
    requirement for a vendor driver flag.
    """

    CAPABILITIES = PmuCapabilities(
        vendor="T-Head",
        core="T-Head C910",
        out_of_order=True,
        rvv_version="0.7.1",
        overflow_interrupt_support="yes",
        upstream_linux="partial",
        num_generic_counters=8,
        sampling_capable_events=(
            HwEvent.CYCLES,
            HwEvent.INSTRUCTIONS,
            HwEvent.CACHE_MISSES,
            HwEvent.BRANCH_MISSES,
        ),
    )

    def __init__(self, bus: EventBus):
        events = dict(_COMMON_RISCV_EVENTS)
        events.update({
            HwEvent.STALLED_CYCLES_FRONTEND: 0x30,
            HwEvent.STALLED_CYCLES_BACKEND: 0x31,
            HwEvent.L2_REFERENCES: 0x32,
            HwEvent.L2_MISSES: 0x33,
        })
        super().__init__(
            bus,
            self.CAPABILITIES,
            events,
            fixed_counters_support_sampling=True,
            generic_counters_support_sampling=True,
        )


class SpacemitX60Pmu(PmuUnit):
    """SpacemiT X60: in-order, RVV 1.0, *limited* overflow-interrupt support.

    The defining quirk (paper Section 3.3): ``mcycle`` and ``minstret`` cannot
    raise overflow interrupts, so the standard perf sampling path fails with
    ``EOPNOTSUPP``.  Three vendor events -- ``u_mode_cycle``, ``s_mode_cycle``
    and ``m_mode_cycle`` -- are counted on generic HPM counters that *do*
    support overflow interrupts.  Configuring one of those as a perf group
    leader makes the whole group (cycles and instructions included) get
    sampled at the leader's overflow, which is the workaround miniperf
    automates.  There is no upstream Linux support; the event list comes from
    the vendor (Bianbu) kernel tree.
    """

    #: Vendor selector codes of the non-standard mode-cycle events.
    U_MODE_CYCLE_CODE = 0x8001
    S_MODE_CYCLE_CODE = 0x8002
    M_MODE_CYCLE_CODE = 0x8003

    CAPABILITIES = PmuCapabilities(
        vendor="SpacemiT",
        core="SpacemiT X60",
        out_of_order=False,
        rvv_version="1.0",
        overflow_interrupt_support="limited",
        upstream_linux="no",
        num_generic_counters=6,
        sampling_capable_events=(
            HwEvent.U_MODE_CYCLE,
            HwEvent.S_MODE_CYCLE,
            HwEvent.M_MODE_CYCLE,
        ),
    )

    def __init__(self, bus: EventBus):
        events = dict(_COMMON_RISCV_EVENTS)
        events.update({
            HwEvent.U_MODE_CYCLE: self.U_MODE_CYCLE_CODE,
            HwEvent.S_MODE_CYCLE: self.S_MODE_CYCLE_CODE,
            HwEvent.M_MODE_CYCLE: self.M_MODE_CYCLE_CODE,
        })
        super().__init__(
            bus,
            self.CAPABILITIES,
            events,
            # The hardware defect: fixed counters count but cannot interrupt.
            fixed_counters_support_sampling=False,
            # Generic counters (where the mode-cycle events land) can.
            generic_counters_support_sampling=True,
        )


class IntelTigerLakePmu(PmuUnit):
    """Intel Core i5-1135G7 comparator: mature PMU, everything just works."""

    CAPABILITIES = PmuCapabilities(
        vendor="Intel",
        core="Intel Core i5-1135G7",
        out_of_order=True,
        rvv_version=None,  # x86: AVX2/AVX-512, reported separately
        overflow_interrupt_support="yes",
        upstream_linux="yes",
        num_generic_counters=8,
        sampling_capable_events=(
            HwEvent.CYCLES,
            HwEvent.INSTRUCTIONS,
            HwEvent.CACHE_MISSES,
            HwEvent.BRANCH_MISSES,
        ),
    )

    def __init__(self, bus: EventBus):
        events = dict(_COMMON_RISCV_EVENTS)
        events.update({
            HwEvent.STALLED_CYCLES_FRONTEND: 0x9C,
            HwEvent.STALLED_CYCLES_BACKEND: 0xA2,
            HwEvent.L2_REFERENCES: 0x24,
            HwEvent.L2_MISSES: 0x25,
            HwEvent.FP_OPS_RETIRED: 0xC7,
        })
        super().__init__(
            bus,
            self.CAPABILITIES,
            events,
            fixed_counters_support_sampling=True,
            generic_counters_support_sampling=True,
        )


_PMU_BY_VENDORID = {
    SIFIVE_MVENDORID: SiFiveU74Pmu,
    THEAD_MVENDORID: TheadC910Pmu,
    SPACEMIT_MVENDORID: SpacemitX60Pmu,
    INTEL_SYNTHETIC_VENDORID: IntelTigerLakePmu,
}


def pmu_for_identity(identity: CpuIdentity, bus: EventBus) -> PmuUnit:
    """Instantiate the right PMU model from the CPU identification registers.

    miniperf's "identify by CSR, not by perf event discovery" policy starts
    here: given an identity we can build the exact PMU model with its quirks.
    """
    try:
        cls = _PMU_BY_VENDORID[identity.mvendorid]
    except KeyError:
        raise KeyError(
            f"unknown mvendorid {identity.mvendorid:#x}; "
            "no PMU model registered for this vendor"
        )
    return cls(bus)


def all_capabilities() -> Dict[str, PmuCapabilities]:
    """Capability descriptors of every modelled core, keyed by core name."""
    return {
        cls.CAPABILITIES.core: cls.CAPABILITIES
        for cls in (SiFiveU74Pmu, TheadC910Pmu, SpacemitX60Pmu, IntelTigerLakePmu)
    }
