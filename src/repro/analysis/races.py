"""Static race certification for parallel workloads, with dynamic validation.

A :class:`~repro.workloads.parallel.ParallelWorkload` shards itself into
thread bodies; whether those shards race is decided by construction
(per-thread heap bases and address-space strides, row sharding).  This
module proves it: a workload that implements ``shard_plans(cpus, spec)``
describes each thread as either

* a :class:`KernelShardPlan` -- a KernelC source plus the *concrete* call
  arguments the thread body passes (plans and thread bodies allocate
  through the same per-shard method, so the addresses are exact), or
* a :class:`TraceShardPlan` -- a synthetic trace replay with a known
  ``[base, base + extent)`` address envelope (the
  :class:`~repro.workloads.synthetic.TraceExecutor` allocation rule).

For kernel shards the address-range analysis (:mod:`repro.analysis.ranges`)
bounds every access to an absolute byte region per pointer argument; trace
shards contribute their envelope as one read/write region.  Pairwise
interval intersection across threads then yields a verdict:

* ``disjoint`` -- no two threads touch a common heap byte;
* ``shared``  -- overlaps exist but all of them are read/read (the
  matmul-parallel B matrix: constructively shared, race-free);
* ``racy``    -- some overlap involves a write;
* ``unknown`` -- an access could not be bounded, so no proof either way.

Shards are compiled and analysed with the vectoriser *off*: the analysis
models semantic (scalar) footprints, while vector lowering retires grouped
ops whose ``size * lanes`` bytes land at the group-closing address --
a retirement artifact that can spill a modelled access past a row boundary
the program never crosses.  Each thread body also builds a private
:class:`~repro.vm.memory.Memory` whose *stack* occupies the same numeric
range on every thread, so only heap addresses (below ``Memory.STACK_BASE``)
enter the comparison; alloca-rooted regions are thread-private by
construction and are likewise excluded.

``record_thread_access_sets`` is the dynamic half of the story: it runs the
workload on a real :class:`~repro.smp.machine.MultiHartMachine` with a
per-hart access recorder installed (``Machine.set_access_recorder``) and
returns the exact per-thread access sets, against which the property suite
checks the static verdicts (containment and disjointness consistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ranges import analyze_address_ranges
from repro.vm.memory import Memory


@dataclass(frozen=True)
class KernelShardPlan:
    """One thread of a compiled parallel workload, as the analyser sees it."""

    thread: str
    source: str
    filename: str
    function: str
    args: Tuple[object, ...]


@dataclass(frozen=True)
class TraceShardPlan:
    """One synthetic-trace thread: a flat ``[base, base + extent)`` envelope."""

    thread: str
    base: int
    extent: int


@dataclass(frozen=True)
class ThreadRegion:
    """An absolute heap byte range one thread may touch."""

    thread: str
    label: str
    lo: int            # absolute address, inclusive
    hi: int            # absolute address, exclusive
    reads: bool
    writes: bool

    def overlaps(self, other: "ThreadRegion") -> bool:
        return self.lo < other.hi and other.lo < self.hi


@dataclass(frozen=True)
class Overlap:
    """A pair of cross-thread regions sharing at least one byte."""

    first: ThreadRegion
    second: ThreadRegion
    kind: str  # 'shared' (read/read) or 'racy' (a write is involved)


@dataclass
class RaceReport:
    """The static race verdict for one (workload, cpus) configuration."""

    workload: str
    cpus: int
    verdict: str = "disjoint"  # 'disjoint' | 'shared' | 'racy' | 'unknown'
    regions: List[ThreadRegion] = field(default_factory=list)
    overlaps: List[Overlap] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "cpus": self.cpus,
            "verdict": self.verdict,
            "regions": [
                {"thread": r.thread, "label": r.label,
                 "lo": r.lo, "hi": r.hi,
                 "reads": r.reads, "writes": r.writes}
                for r in self.regions
            ],
            "overlaps": [
                {"first": f"{o.first.thread}:{o.first.label}",
                 "second": f"{o.second.thread}:{o.second.label}",
                 "kind": o.kind}
                for o in self.overlaps
            ],
            "notes": list(self.notes),
        }


def _merge_spans(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce sorted half-open spans; touching spans merge."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _spans_overlap(first: Sequence[Tuple[int, int]],
                   second: Sequence[Tuple[int, int]]) -> bool:
    """Whether any byte lies in both span lists (strict intersection)."""
    return any(alo < bhi and blo < ahi
               for alo, ahi in first for blo, bhi in second)


def supports_shard_plans(workload) -> bool:
    return callable(getattr(workload, "shard_plans", None))


def _scalar_spec(spec):
    """The analysis/recording configuration: same shards, scalar lowering."""
    if getattr(spec, "enable_vectorizer", False):
        return spec.replace(enable_vectorizer=False)
    return spec


def _regions_for_kernel(plan: KernelShardPlan, descriptor) -> Tuple[
        List[ThreadRegion], List[str]]:
    from repro.compiler.cache import compile_source_cached

    module = compile_source_cached(plan.source, plan.filename, descriptor,
                                   enable_vectorizer=False)
    function = module.get_function(plan.function)
    result = analyze_address_ranges(function, plan.args)
    regions: List[ThreadRegion] = []
    notes: List[str] = []
    for region in result.sorted_regions():
        if region.is_private:
            continue  # per-thread stack slot; never inter-thread visible
        absolute = region.absolute()
        if absolute is None:
            notes.append(
                f"{plan.thread}: region {region.name!r} of "
                f"@{plan.function} could not be bounded"
            )
            continue
        lo, hi = absolute
        if lo >= Memory.STACK_BASE:
            continue  # thread-private stack range (identical across threads)
        regions.append(ThreadRegion(
            thread=plan.thread, label=region.name, lo=lo, hi=hi,
            reads=region.reads > 0, writes=region.writes > 0,
        ))
    for access in result.unresolved:
        if access.root is None:
            notes.append(
                f"{plan.thread}: a {'store' if access.is_store else 'load'} "
                f"in @{plan.function} has no statically known base"
            )
    return regions, notes


def analyze_parallel_workload(workload, cpus: int, spec,
                              descriptor) -> RaceReport:
    """Statically classify the cross-thread sharing of *workload*.

    *spec* and *descriptor* are the run configuration the shards would
    execute under; ``cpus`` shards exactly as
    ``workload.threads(cpus, spec)`` would.
    """
    report = RaceReport(workload=workload.name, cpus=cpus)
    if not supports_shard_plans(workload):
        report.verdict = "unknown"
        report.notes.append(
            f"workload {workload.name!r} does not describe its shards "
            "(no shard_plans); nothing to prove"
        )
        return report
    plans = workload.shard_plans(cpus, _scalar_spec(spec))
    for plan in plans:
        if isinstance(plan, TraceShardPlan):
            report.regions.append(ThreadRegion(
                thread=plan.thread, label="trace", lo=plan.base,
                hi=plan.base + plan.extent, reads=True, writes=True,
            ))
        else:
            regions, notes = _regions_for_kernel(plan, descriptor)
            report.regions.extend(regions)
            report.notes.extend(notes)
    for i, first in enumerate(report.regions):
        for second in report.regions[i + 1:]:
            if first.thread == second.thread:
                continue
            if not first.overlaps(second):
                continue
            kind = "racy" if (first.writes or second.writes) else "shared"
            report.overlaps.append(Overlap(first, second, kind))
    if any(overlap.kind == "racy" for overlap in report.overlaps):
        report.verdict = "racy"
    elif report.notes:
        report.verdict = "unknown"
    elif report.overlaps:
        report.verdict = "shared"
    else:
        report.verdict = "disjoint"
    return report


# -- dynamic validation ----------------------------------------------------------------


@dataclass
class AccessSets:
    """Recorded per-thread memory accesses from one instrumented SMP run."""

    workload: str
    cpus: int
    #: thread name -> set of (address, size_bytes, is_store) tuples.
    by_thread: Dict[str, set] = field(default_factory=dict)

    def heap_spans(self, thread: str,
                   stores: Optional[bool] = None) -> List[Tuple[int, int]]:
        """Merged, sorted half-open heap spans for *thread*.

        ``stores`` filters to store accesses (True), load accesses (False)
        or both (None).  Reads and writes are merged *separately* when the
        caller asks for one kind: merging a read span into a touching write
        span would smear the write flag across bytes the thread only read,
        turning boundary-adjacent allocations into phantom races.
        """
        spans = sorted(
            (address, address + size)
            for address, size, is_store in self.by_thread.get(thread, ())
            if address < Memory.STACK_BASE
            and (stores is None or is_store == stores)
        )
        return _merge_spans(spans)

    def dynamic_verdict(self) -> str:
        """'disjoint' / 'shared' / 'racy' over the *recorded* heap bytes."""
        threads = sorted(self.by_thread)
        reads = {t: self.heap_spans(t, stores=False) for t in threads}
        writes = {t: self.heap_spans(t, stores=True) for t in threads}
        verdict = "disjoint"
        for i, first in enumerate(threads):
            for second in threads[i + 1:]:
                if (_spans_overlap(writes[first], writes[second])
                        or _spans_overlap(writes[first], reads[second])
                        or _spans_overlap(writes[second], reads[first])):
                    return "racy"
                if _spans_overlap(reads[first], reads[second]):
                    verdict = "shared"
        return verdict


def record_thread_access_sets(workload, cpus: int, spec,
                              descriptor) -> AccessSets:
    """Run *workload* on an SMP machine and record per-thread access sets.

    Recording uses the same scalar configuration the static analysis models
    (see the module docstring); scheduling, sharding and addresses are the
    production ones.
    """
    from repro.smp.machine import MultiHartMachine
    from repro.smp.scheduler import run_threads

    scalar = _scalar_spec(spec)
    machine = MultiHartMachine(descriptor, cpus,
                               vendor_driver=spec.vendor_driver is not False)
    sets = AccessSets(workload=workload.name, cpus=cpus)

    def install(hart) -> None:
        def recorder(address: int, size: int, is_store: bool) -> None:
            task = hart.current_task
            name = task.name if task is not None else f"<hart-{hart.hart_id}>"
            sets.by_thread.setdefault(name, set()).add((address, size, is_store))
        hart.set_access_recorder(recorder)

    for hart_id in range(cpus):
        install(machine.hart(hart_id))
    try:
        run_threads(machine, workload.threads(cpus, scalar))
    finally:
        for hart_id in range(cpus):
            machine.hart(hart_id).set_access_recorder(None)
    return sets


def check_consistency(report: RaceReport, recorded: AccessSets) -> List[str]:
    """Cross-check a static :class:`RaceReport` against a recorded run.

    Returns a list of human-readable inconsistencies (empty = consistent):

    * a thread's recorded heap access falling outside its static regions
      (the static analysis under-approximated -- a soundness bug);
    * a static ``disjoint`` verdict contradicted by recorded cross-thread
      overlap, or a static ``racy``/``shared`` claim the recording shows as
      write-overlap when disjointness was claimed.
    """
    problems: List[str] = []
    static_by_thread: Dict[str, List[ThreadRegion]] = {}
    for region in report.regions:
        static_by_thread.setdefault(region.thread, []).append(region)
    for thread, spans in sorted(
            (t, recorded.heap_spans(t)) for t in recorded.by_thread):
        regions = static_by_thread.get(thread)
        if regions is None:
            if spans:
                problems.append(
                    f"thread {thread!r} recorded heap accesses but has no "
                    "static regions"
                )
            continue
        # A recorded span may legitimately cover several boundary-adjacent
        # static regions (A/B/C allocated back to back), so containment is
        # checked against the merged union of the thread's regions.
        static_spans = _merge_spans(
            sorted((r.lo, r.hi) for r in regions))
        for lo, hi in spans:
            if not any(slo <= lo and hi <= shi for slo, shi in static_spans):
                problems.append(
                    f"thread {thread!r} access [{lo:#x}, {hi:#x}) outside "
                    "its static regions"
                )
    dynamic = recorded.dynamic_verdict()
    if report.verdict == "disjoint" and dynamic != "disjoint":
        problems.append(
            f"static verdict is disjoint but the recorded run is {dynamic}"
        )
    if report.verdict in ("disjoint", "shared") and dynamic == "racy":
        problems.append(
            f"static verdict is {report.verdict} but the recorded run has "
            "cross-thread write overlap"
        )
    return problems
