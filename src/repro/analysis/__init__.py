"""Static analysis over the compiler IR and the repo's own source.

Three layers (see ``docs/architecture.md``, "Static analysis"):

* :mod:`repro.analysis.dataflow` -- the worklist dataflow framework plus
  liveness and reaching definitions;
* :mod:`repro.analysis.ranges` -- interval-based address-range/alias
  analysis bounding every load/store to a base+offset byte region;
* the race certifier: :mod:`repro.analysis.races` (static per-thread
  address disjointness for parallel workloads, validated against recorded
  per-hart access sets);
* :mod:`repro.analysis.lint` -- the determinism linter (``repro lint``).

This package depends only on :mod:`repro.compiler` at import time; runtime
integrations (engines, SMP machines, workloads) are imported lazily inside
functions so ``repro.analysis`` can be imported from anywhere in the repo
without cycles.
"""

from repro.analysis.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    LivenessAnalysis,
    ReachingDefinitionsAnalysis,
    live_in,
    max_live_values,
    pointer_root,
    reaching_definitions,
    solve,
)
from repro.analysis.ranges import (
    Access,
    AddressRangeAnalysis,
    Interval,
    PointerValue,
    RangeResult,
    Region,
    analyze_address_ranges,
)

__all__ = [
    "Access",
    "AddressRangeAnalysis",
    "DataflowAnalysis",
    "DataflowResult",
    "Interval",
    "LivenessAnalysis",
    "PointerValue",
    "RangeResult",
    "ReachingDefinitionsAnalysis",
    "Region",
    "analyze_address_ranges",
    "live_in",
    "max_live_values",
    "pointer_root",
    "reaching_definitions",
    "solve",
]
