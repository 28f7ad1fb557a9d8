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

# The package namespace loads each name's module on first access: a
# synthetic-trace record never imports the compiler, the VM or the SMP model.
from repro._lazy import lazy_exports

_EXPORTS = {
    "Machine": "repro.platforms",
    "MultiHartMachine": "repro.smp",
    "Miniperf": "repro.miniperf",
    "Session": "repro.api",
    "ProfileSpec": "repro.api",
    "Run": "repro.api",
    "Comparison": "repro.api",
    "all_platforms": "repro.platforms",
    "platform_by_name": "repro.platforms",
    "spacemit_x60": "repro.platforms",
    "sifive_u74": "repro.platforms",
    "thead_c910": "repro.platforms",
    "intel_i5_1135g7": "repro.platforms",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
