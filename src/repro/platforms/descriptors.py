"""Descriptors for the four evaluation platforms.

Parameters follow publicly documented figures where available (frequencies,
cache sizes, issue widths, VLEN) and are otherwise chosen so that the
*relative* results the paper reports hold: the X60's measured ~3.16
bytes/cycle DRAM bandwidth, its 256-bit RVV 1.0 datapath, the U74's lack of a
vector unit, the C910's out-of-order RVV 0.7.1 design, and a Tiger Lake
laptop part as the x86 comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.cpu.cache import CacheConfig, MemoryConfig
from repro.cpu.core import CoreConfig, DEFAULT_LATENCIES
from repro.isa.csr import CpuIdentity
from repro.isa.machine_ops import OpClass
from repro.pmu.unit import PmuUnit
from repro.pmu.vendors import (
    C910_IDENTITY,
    IntelTigerLakePmu,
    SiFiveU74Pmu,
    SpacemitX60Pmu,
    TheadC910Pmu,
    TIGERLAKE_IDENTITY,
    U74_IDENTITY,
    X60_IDENTITY,
)


@dataclass(frozen=True)
class VectorCapability:
    """Vector ISA support of a platform."""

    extension: Optional[str]      # "RVV 1.0", "RVV 0.7.1", "AVX2", or None
    vlen_bits: int = 0            # hardware vector length (0 when unsupported)

    @property
    def supported(self) -> bool:
        return self.extension is not None and self.vlen_bits > 0

    def sp_lanes(self) -> int:
        """Single-precision elements per vector operation."""
        return self.vlen_bits // 32 if self.supported else 1


@dataclass(frozen=True)
class PlatformDescriptor:
    """Everything needed to instantiate a platform's machine model."""

    name: str
    arch: str                         # "riscv64" or "x86_64"
    board: str
    core: CoreConfig
    caches: List[CacheConfig]
    memory: MemoryConfig
    vector: VectorCapability
    identity: CpuIdentity
    pmu_class: Type[PmuUnit]
    upstream_linux: str               # "yes" | "partial" | "no"
    march: str = ""                   # compiler target string (-march=...)
    #: Physical hart (core) count of the board; ``--cpus``/``-a`` on the CLI
    #: and :class:`repro.smp.MultiHartMachine` scale up to this.
    harts: int = 1

    @property
    def is_riscv(self) -> bool:
        return self.arch == "riscv64"

    def theoretical_peak_gflops(self) -> float:
        """Peak single-precision GFLOP/s (the roofline compute roof)."""
        return self.core.peak_sp_flops_per_cycle * self.core.frequency_hz / 1e9

    def theoretical_dram_bandwidth_gbps(self) -> float:
        """Peak DRAM bandwidth in GB/s (the roofline memory roof)."""
        return self.memory.peak_bytes_per_cycle * self.core.frequency_hz / 1e9


def _latencies(**overrides: int) -> Dict[OpClass, int]:
    table = dict(DEFAULT_LATENCIES)
    for key, value in overrides.items():
        table[OpClass[key]] = value
    return table


def spacemit_x60() -> PlatformDescriptor:
    """SpacemiT X60 (Banana Pi F3 / Milk-V Jupiter).

    In-order dual-issue, RVV 1.0 with 256-bit VLEN, 1.6 GHz.  The paper's
    roofs for this part: 3.16 bytes/cycle of DRAM bandwidth (~4.7 GB/s) and
    2 IPC x 8 SP lanes x 1.6 GHz = 25.6 GFLOP/s.
    """
    core = CoreConfig(
        name="SpacemiT X60",
        frequency_hz=1.6e9,
        issue_width=2,
        out_of_order=False,
        latencies=_latencies(FP_ADD=4, FP_MUL=5, FP_FMA=5, LOAD=3),
        dependency_exposure=0.45,
        memory_exposure=0.45,
        mispredict_penalty=6,
        peak_sp_flops_per_cycle=16.0,   # 2 IPC x 8 SP FLOP per vector op
        vector_sp_lanes=8,
        taken_branch_bubble=0.35,
    )
    return PlatformDescriptor(
        name="SpacemiT X60",
        arch="riscv64",
        board="Banana Pi F3",
        core=core,
        caches=[
            CacheConfig("L1D", size_bytes=32 * 1024, line_bytes=64,
                        associativity=8, hit_latency=3),
            CacheConfig("L2", size_bytes=512 * 1024, line_bytes=64,
                        associativity=8, hit_latency=14),
        ],
        memory=MemoryConfig(latency_cycles=160, peak_bytes_per_cycle=3.16),
        vector=VectorCapability("RVV 1.0", vlen_bits=256),
        identity=X60_IDENTITY,
        pmu_class=SpacemitX60Pmu,
        upstream_linux="no",
        march="rv64gcv",
        harts=8,                       # the Banana Pi F3 is an octa-core part
    )


def sifive_u74() -> PlatformDescriptor:
    """SiFive U74 (VisionFive 2): in-order dual-issue, no vector unit."""
    core = CoreConfig(
        name="SiFive U74",
        frequency_hz=1.5e9,
        issue_width=2,
        out_of_order=False,
        latencies=_latencies(FP_ADD=5, FP_MUL=5, FP_FMA=6, LOAD=3),
        dependency_exposure=0.55,
        memory_exposure=0.70,
        mispredict_penalty=6,
        peak_sp_flops_per_cycle=2.0,     # scalar FMA only
        vector_sp_lanes=1,
        taken_branch_bubble=0.6,
    )
    return PlatformDescriptor(
        name="SiFive U74",
        arch="riscv64",
        board="VisionFive 2",
        core=core,
        caches=[
            CacheConfig("L1D", size_bytes=32 * 1024, line_bytes=64,
                        associativity=8, hit_latency=3),
            CacheConfig("L2", size_bytes=2 * 1024 * 1024, line_bytes=64,
                        associativity=16, hit_latency=21),
        ],
        memory=MemoryConfig(latency_cycles=170, peak_bytes_per_cycle=2.4),
        vector=VectorCapability(None, vlen_bits=0),
        identity=U74_IDENTITY,
        pmu_class=SiFiveU74Pmu,
        upstream_linux="yes",
        march="rv64gc",
        harts=4,                       # JH7110: four U74 application harts
    )


def thead_c910() -> PlatformDescriptor:
    """T-Head C910 (Lichee Pi 4A): out-of-order, RVV 0.7.1 (128-bit)."""
    core = CoreConfig(
        name="T-Head C910",
        frequency_hz=1.85e9,
        issue_width=3,
        out_of_order=True,
        latencies=_latencies(FP_ADD=3, FP_MUL=4, FP_FMA=4, LOAD=4),
        dependency_exposure=0.5,
        memory_exposure=0.6,
        mispredict_penalty=10,
        peak_sp_flops_per_cycle=8.0,     # 128-bit datapath, one FMA pipe
        vector_sp_lanes=4,
        taken_branch_bubble=0.2,
    )
    return PlatformDescriptor(
        name="T-Head C910",
        arch="riscv64",
        board="Lichee Pi 4A",
        core=core,
        caches=[
            CacheConfig("L1D", size_bytes=64 * 1024, line_bytes=64,
                        associativity=4, hit_latency=3),
            CacheConfig("L2", size_bytes=1024 * 1024, line_bytes=64,
                        associativity=16, hit_latency=18),
        ],
        memory=MemoryConfig(latency_cycles=150, peak_bytes_per_cycle=4.0),
        vector=VectorCapability("RVV 0.7.1", vlen_bits=128),
        identity=C910_IDENTITY,
        pmu_class=TheadC910Pmu,
        upstream_linux="partial",
        march="rv64gc_v0p7",
        harts=4,                       # TH1520: quad C910 cluster
    )


def intel_i5_1135g7() -> PlatformDescriptor:
    """Intel Core i5-1135G7 (Tiger Lake): the paper's x86 comparator.

    The paper compiles with ``-mavx2``; with two 256-bit FMA ports that is a
    peak of 2 x 8 x 2 = 32 SP FLOPs per cycle.
    """
    core = CoreConfig(
        name="Intel Core i5-1135G7",
        frequency_hz=4.2e9,
        issue_width=5,
        out_of_order=True,
        latencies=_latencies(FP_ADD=4, FP_MUL=4, FP_FMA=4, LOAD=5, INT_DIV=26),
        dependency_exposure=0.5,
        memory_exposure=0.55,
        mispredict_penalty=14,
        peak_sp_flops_per_cycle=32.0,
        vector_sp_lanes=8,
        taken_branch_bubble=0.05,
    )
    return PlatformDescriptor(
        name="Intel Core i5-1135G7",
        arch="x86_64",
        board="laptop (Tiger Lake)",
        core=core,
        caches=[
            CacheConfig("L1D", size_bytes=48 * 1024, line_bytes=64,
                        associativity=12, hit_latency=5),
            CacheConfig("L2", size_bytes=1280 * 1024, line_bytes=64,
                        associativity=20, hit_latency=13),
            CacheConfig("L3", size_bytes=8 * 1024 * 1024, line_bytes=64,
                        associativity=16, hit_latency=40),
        ],
        memory=MemoryConfig(latency_cycles=250, peak_bytes_per_cycle=12.0),
        vector=VectorCapability("AVX2", vlen_bits=256),
        identity=TIGERLAKE_IDENTITY,
        pmu_class=IntelTigerLakePmu,
        upstream_linux="yes",
        march="x86-64-v3",
        harts=4,                       # i5-1135G7: four Willow Cove cores
    )


_FACTORIES = {
    "SpacemiT X60": spacemit_x60,
    "SiFive U74": sifive_u74,
    "T-Head C910": thead_c910,
    "Intel Core i5-1135G7": intel_i5_1135g7,
}


def all_platforms() -> List[PlatformDescriptor]:
    """Every modelled platform, in the paper's Table 1 order plus the comparator."""
    return [sifive_u74(), thead_c910(), spacemit_x60(), intel_i5_1135g7()]


def platform_by_name(name: str) -> PlatformDescriptor:
    """Look a platform up by (case-insensitive, substring-tolerant) name."""
    for key, factory in _FACTORIES.items():
        if key.lower() == name.lower():
            return factory()
    for key, factory in _FACTORIES.items():
        if name.lower() in key.lower():
            return factory()
    raise KeyError(
        f"unknown platform {name!r}; available: {', '.join(_FACTORIES)}"
    )
