"""The ``repro analyze`` report, as a library.

Builds the static-analysis report (address regions, liveness/reaching-defs,
race verdicts) for one workload or the
whole registry on one platform.  The CLI's ``analyze`` subcommand and the
service's ``POST /analyze`` endpoint are both thin shells over
:func:`build_analyze_report`; :func:`format_analyze_entry` renders one
report entry to the text the CLI prints, so server-side rendering matches
the in-process command byte for byte.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.dataflow import max_live_values, reaching_definitions
from repro.analysis.races import analyze_parallel_workload, supports_shard_plans
from repro.analysis.ranges import analyze_address_ranges


def analyze_kernel_module(source: str, filename: str, entry: str,
                          args_builder, descriptor) -> List[dict]:
    """The per-function static report for one compiled kernel source.

    Analysis always runs on the scalar (vectorizer-off) module: the address
    analysis models semantic footprints.  Concrete argument values (from the workload's own args
    builder against a fresh Memory) give pointer regions absolute bases.
    """
    from repro.compiler.cache import compile_source_cached
    from repro.vm import Memory
    module = compile_source_cached(source, filename, descriptor,
                                   enable_vectorizer=False)
    concrete_args = list(args_builder(Memory())) if args_builder else None
    functions: List[dict] = []
    for function in module.defined_functions():
        arg_values = concrete_args if function.name == entry else None
        ranges = analyze_address_ranges(function, arg_values)
        reaching = reaching_definitions(function)
        functions.append({
            "name": function.name,
            "max_live_values": max_live_values(function),
            "max_reaching_defs": max(
                (len(defs) for defs in reaching.values()), default=0),
            "regions": [
                {
                    "name": region.name,
                    "lo": region.lo, "hi": region.hi,
                    "stride": region.stride,
                    "reads": region.reads, "writes": region.writes,
                    "private": region.is_private,
                    "base": region.base,
                }
                for region in ranges.sorted_regions()
            ],
            "unresolved_accesses": len(ranges.unresolved),
        })
    return functions


def analyze_workload(workload, descriptor, cpus: int) -> dict:
    """One report entry: kernel function analyses or a race verdict."""
    from repro.api import ProfileSpec
    entry: dict = {"name": workload.name, "kind": workload.kind}
    if workload.kind == "kernel":
        entry["functions"] = analyze_kernel_module(
            workload.source, workload.filename, workload.function,
            workload.args_builder, descriptor)
    elif supports_shard_plans(workload):
        report = analyze_parallel_workload(workload, cpus, ProfileSpec(),
                                           descriptor)
        entry["race"] = report.to_dict()
    else:
        entry["note"] = ("synthetic trace replay; no compiled IR to "
                        "analyze statically")
    return entry


def build_analyze_report(platform: str, cpus: int = 1,
                         workload: Optional[str] = None,
                         params: Optional[dict] = None,
                         all_workloads: bool = False) -> dict:
    """The full ``repro analyze`` report as one JSON-shaped dict.

    *workload* is a registry name (with optional factory *params*);
    *all_workloads* analyzes every registered workload instead.  The
    returned dict is exactly what ``repro analyze --json`` prints.
    """
    from repro.platforms import platform_by_name
    from repro.smp.machine import check_cpus
    from repro.workloads import registry
    descriptor = platform_by_name(platform)
    check_cpus(descriptor, cpus)
    if all_workloads:
        workloads = [registry.create(name) for name in registry]
    else:
        workloads = [registry.create(workload, **dict(params or {}))]
    entries = [analyze_workload(item, descriptor, cpus)
               for item in workloads]
    return {"platform": descriptor.name, "cpus": cpus, "workloads": entries}


def failed_certifications(report: dict) -> List[str]:
    """Workload names whose race verdict is ``racy``/``unknown`` -- the
    entries that make ``repro analyze`` exit nonzero."""
    return [entry["name"] for entry in report["workloads"]
            if entry.get("race", {}).get("verdict") in ("racy", "unknown")]


def format_analyze_entry(entry: dict) -> str:
    """Render one report entry to the text ``repro analyze`` prints."""
    lines = [f"workload: {entry['name']} ({entry['kind']})"]
    for function in entry.get("functions", ()):
        lines.append(
            f"  @{function['name']}: max live values "
            f"{function['max_live_values']}; max reaching defs "
            f"{function['max_reaching_defs']}"
        )
        for region in function["regions"]:
            span = (f"[{region['lo']}, {region['hi']})"
                    if region["lo"] is not None and region["hi"] is not None
                    else "[unbounded)")
            where = ("private" if region["private"]
                     else f"base={region['base']:#x}" if region["base"] is not None
                     else "base=?")
            lines.append(
                f"    region {region['name']}: {span} stride "
                f"{region['stride']} reads={region['reads']} "
                f"writes={region['writes']} ({where})"
            )
        if function["unresolved_accesses"]:
            lines.append(
                f"    {function['unresolved_accesses']} access(es) "
                "could not be bounded"
            )
    race = entry.get("race")
    if race is not None:
        lines.append(f"  race verdict ({race['cpus']} harts): "
                     f"{race['verdict']}")
        for region in race["regions"]:
            lines.append(
                f"    {region['thread']}/{region['label']}: "
                f"[{region['lo']:#x}, {region['hi']:#x}) "
                f"reads={region['reads']} writes={region['writes']}"
            )
        for overlap in race["overlaps"]:
            lines.append(f"    overlap {overlap['first']} ~ "
                         f"{overlap['second']}: {overlap['kind']}")
        for note in race["notes"]:
            lines.append(f"    note: {note}")
    if "note" in entry:
        lines.append(f"  {entry['note']}")
    return "\n".join(lines)


def format_analyze_report(report: dict) -> str:
    """Render the whole report to the text ``repro analyze`` prints."""
    lines = [f"static analysis on {report['platform']} ({report['cpus']} "
             "harts for parallel workloads):"]
    for entry in report["workloads"]:
        lines.append(format_analyze_entry(entry))
    return "\n".join(lines)
