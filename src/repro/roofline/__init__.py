"""Roofline modelling: roofs, points, plots and the two-phase runner.

The re-exported names load their module on first access: the runner and
the microbenchmarks pull in the compiler and the VM, which a process that
only renders or reads roofline models never needs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MachineRoofs": "repro.roofline.machine",
    "theoretical_roofs": "repro.roofline.machine",
    "measure_roofs": "repro.roofline.microbench",
    "MicrobenchResult": "repro.roofline.microbench",
    "RooflinePoint": "repro.roofline.model",
    "RooflineModel": "repro.roofline.model",
    "render_ascii_roofline": "repro.roofline.plot",
    "render_svg_roofline": "repro.roofline.plot",
    "RooflineRunner": "repro.roofline.runner",
    "KernelRooflineResult": "repro.roofline.runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
