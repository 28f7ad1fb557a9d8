"""repro: reproduction of "Dissecting RISC-V Performance" (PACT 2025).

The package rebuilds, in Python, every layer the paper's methodology touches:
the RISC-V privileged architecture and PMU hardware (with vendor quirks), the
OpenSBI firmware and Linux ``perf_event`` software stack, an LLVM-like
compiler with the Roofline instrumentation pass, an execution engine that
runs compiled kernels on cycle-approximate platform models, and the
``miniperf`` tool plus flame-graph and roofline reporting on top.

Quick start::

    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    session = Session("SpacemiT X60")
    run = session.run(registry["sqlite3-like"], ProfileSpec())
    print(run.hotspots.format())
"""

__version__ = "1.2.0"

from repro.platforms import (
    Machine,
    all_platforms,
    intel_i5_1135g7,
    platform_by_name,
    sifive_u74,
    spacemit_x60,
    thead_c910,
)
from repro.miniperf import Miniperf
from repro.api import Comparison, ProfileSpec, Run, Session
from repro.smp import MultiHartMachine

__all__ = [
    "__version__",
    "Machine",
    "MultiHartMachine",
    "Miniperf",
    "Session",
    "ProfileSpec",
    "Run",
    "Comparison",
    "all_platforms",
    "platform_by_name",
    "spacemit_x60",
    "sifive_u74",
    "thead_c910",
    "intel_i5_1135g7",
]
