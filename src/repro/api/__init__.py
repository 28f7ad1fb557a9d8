"""The unified profiling-session API (the paper's third contribution, as a library).

Three concepts compose:

* a :class:`Workload` -- anything profilable: synthetic call-tree trace
  replays or compiled KernelC kernels run on the fast-dispatch VM engine,
  usually looked up by name in :data:`repro.workloads.registry`;
* a :class:`ProfileSpec` -- a declarative, immutable description of what to
  measure (events, sampling vs. counting, vendor-driver and vectoriser
  toggles) and which analyses to derive (hotspots, flame graphs, roofline);
* a :class:`Session` -- owns lazy machine construction for one platform and
  turns ``session.run(workload, spec)`` into a uniform :class:`Run` with
  ``to_dict``/JSON, text-report and SVG exporters.

Quick start::

    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    session = Session("SpacemiT X60")
    run = session.run(registry["sqlite3-like"], ProfileSpec(sample_period=10_000))
    print(run.report())

    roofline = session.run(registry["matmul-tiled"],
                           ProfileSpec(analyses=("roofline",)))
    print(roofline.report())

    comparison = Session.compare(["SpacemiT X60", "Intel Core i5-1135G7"],
                                 "sqlite3-like", ProfileSpec())
    print(comparison.report())

The re-exported names load their module on first access, so a process that
never fans runs out over worker processes never imports
:mod:`repro.api.executor` (and with it :mod:`multiprocessing`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ANALYSES": "repro.api.spec",
    "ProfileSpec": "repro.api.spec",
    "Workload": "repro.api.workload",
    "SyntheticTraceWorkload": "repro.api.workload",
    "CompiledKernelWorkload": "repro.api.workload",
    "Run": "repro.api.run",
    "RunRequest": "repro.api.executor",
    "run_many": "repro.api.executor",
    "execute_request": "repro.api.executor",
    "Comparison": "repro.api.run",
    "Session": "repro.api.session",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
