"""The sweep engine: cartesian profiling plans over a persistent cache.

``run_many`` executes a flat list of requests; a *sweep* is the layer above
it: the cartesian plan (platforms x workloads x cpus x spec knobs), cell
canonicalization and content addressing, incremental re-execution against
the disk store, and the per-sweep trajectory export.

Each cell is canonicalized exactly the way the daemon canonicalizes a
``POST /run`` body (platform aliases resolved, spec defaults applied) and
addressed with the same ``cache_key("run", ...)`` digest, then stored under
the same ``result`` kind -- so a sweep warms the cache a ``repro serve
--cache-dir`` daemon serves from, and a daemon-filled store lets a sweep
skip those cells.  A cached cell is a *hit*: its payload bytes are served
as-is, which is safe because every export is byte-reproducible (the
differential suites enforce that a disk-served run equals a cold compile
bit for bit).  A corrupted entry fails the store's integrity check and the
cell silently re-executes.

Scheduling is shared-cache-aware: cache-miss cells are ordered by
(platform, workload) before fanning out over :func:`~repro.api.executor.
run_many`, so one worker's warmed compile cache -- and one disk-store
module entry -- serves a run of adjacent cells instead of interleaving
configurations.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.executor import RunFailure, RunRequest, canonical_request, run_plan
from repro.api.journal import SweepJournal
from repro.api.spec import ProfileSpec
from repro.cache import keys as cache_keys
from repro.cache.keys import RESULT_KIND
from repro.cache.store import atomic_write_bytes, default_store

#: Sentinel: "use the process default store" (None means "no store").
_DEFAULT_STORE = object()

#: Schema tag of the BENCH_sweep.json trajectory document.
TRAJECTORY_SCHEMA = "repro-sweep/v1"


def build_plan(platforms: Sequence[str], workloads: Sequence[str],
               cpus: Sequence[int] = (1,),
               spec: Optional[ProfileSpec] = None,
               axes: Optional[Mapping[str, Sequence[object]]] = None,
               params: Optional[dict] = None,
               vendor_driver: bool = True) -> List[RunRequest]:
    """The cartesian plan: platforms x workloads x cpus x spec knobs.

    ``axes`` maps :class:`ProfileSpec` field names to value sequences; every
    combination produces one cell via ``spec.replace(...)`` (an unknown
    field name raises the dataclass's own ``TypeError``).  Plan order is
    deterministic: platforms, then workloads, then cpus, then the axes in
    sorted-name order, each in the given value order.
    """
    base = ProfileSpec().counting() if spec is None else spec
    axis_names = sorted(axes) if axes else []
    axis_values = [list(axes[name]) for name in axis_names]
    plan: List[RunRequest] = []
    for platform, workload, cpu_count in itertools.product(
            platforms, workloads, cpus):
        for combo in itertools.product(*axis_values):
            cell_spec = base.replace(cpus=int(cpu_count),
                                     **dict(zip(axis_names, combo)))
            plan.append(RunRequest(platform=platform, workload=workload,
                                   params=dict(params or {}),
                                   spec=cell_spec,
                                   vendor_driver=vendor_driver))
    return plan


@dataclass(frozen=True)
class SweepCell:
    """One plan cell: its request, canonical wire form and content address."""

    index: int
    request: RunRequest
    canonical: dict
    key: str

    @property
    def platform(self) -> str:
        return self.canonical["platform"]

    @property
    def workload(self) -> str:
        return self.canonical["workload"]

    @property
    def cpus(self) -> int:
        return int(self.canonical["spec"]["cpus"])


@dataclass
class CellOutcome:
    """How one cell was served: cache, execution, dedup, resume -- or not.

    ``status`` is one of ``hit`` (served from the store), ``executed``,
    ``deduplicated`` (identical canonical form as an earlier cell),
    ``resumed`` (journaled complete by an interrupted sweep and served from
    the store without re-executing) or ``error`` (its execution raised; the
    sweep continued -- per-cell failure isolation).
    """

    cell: SweepCell
    status: str  # 'hit' | 'executed' | 'deduplicated' | 'resumed' | 'error'
    #: The daemon-shaped response payload ({"run": ..., "renderings": ...}),
    #: or ``{"error": {...}}`` for failed cells.
    payload: dict

    @property
    def failed(self) -> bool:
        return self.status == "error"

    @property
    def failure(self) -> Dict[str, str]:
        """The structured error of a failed cell (type, message, cache_key)."""
        return dict(self.payload.get("error", {}))

    @property
    def run(self) -> dict:
        return self.payload["run"]

    @property
    def errors(self) -> Dict[str, str]:
        if "run" not in self.payload:
            return {}
        return dict(self.run.get("errors", {}))

    def body(self) -> bytes:
        """The cacheable response bytes (what the store holds/served)."""
        return cache_keys.encode_body(self.payload)


@dataclass
class SweepResult:
    """Every cell outcome of one sweep, in plan order, plus cache stats."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    cache_stats: Optional[dict] = None
    bypassed: bool = False

    def __len__(self) -> int:
        return len(self.outcomes)

    def counts(self) -> Dict[str, int]:
        counts = {"hit": 0, "executed": 0, "deduplicated": 0,
                  "resumed": 0, "error": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def all_from_cache(self) -> bool:
        """Whether no cell had to execute (an incremental re-run hit fully)."""
        return self.counts()["executed"] == 0

    @property
    def failed_cells(self) -> List[CellOutcome]:
        """Cells whose execution raised (status ``error``), in plan order."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def summary(self) -> str:
        counts = self.counts()
        errors = sum(1 for outcome in self.outcomes if outcome.errors)
        line = (f"cells: {len(self.outcomes)}  hits: {counts['hit']}  "
                f"executed: {counts['executed']}  "
                f"deduplicated: {counts['deduplicated']}")
        if counts["resumed"]:
            line += f"  resumed: {counts['resumed']}"
        if counts["error"]:
            line += f"  failed: {counts['error']}"
        if errors:
            line += f"  with-errors: {errors}"
        return line

    def to_trajectory(self,
                      elapsed_seconds: Optional[float] = None) -> dict:
        """The BENCH_sweep.json document: schema, totals, per-cell status."""
        counts = self.counts()
        cells = []
        for outcome in self.outcomes:
            entry: dict = {
                "platform": outcome.cell.platform,
                "workload": outcome.cell.workload,
                "cpus": outcome.cell.cpus,
                "params": dict(outcome.cell.canonical.get("params", {})),
                "key": outcome.cell.key,
                "status": outcome.status,
            }
            if outcome.errors:
                entry["errors"] = sorted(outcome.errors)
            if outcome.failed:
                entry["error"] = outcome.failure
            cells.append(entry)
        doc: dict = {
            "schema": TRAJECTORY_SCHEMA,
            "totals": {
                "cells": len(self.outcomes),
                "hits": counts["hit"],
                "executed": counts["executed"],
                "deduplicated": counts["deduplicated"],
                "resumed": counts["resumed"],
                "failed": counts["error"],
                "with_errors": sum(1 for outcome in self.outcomes
                                   if outcome.errors),
            },
            "bypassed": self.bypassed,
            "cells": cells,
            "cache": self.cache_stats,
        }
        if elapsed_seconds is not None:
            doc["elapsed_seconds"] = round(elapsed_seconds, 3)
        return doc

    def write_trajectory(self, path: str,
                         elapsed_seconds: Optional[float] = None) -> dict:
        """Write the trajectory document atomically (tempfile + replace):
        a reader -- or a crash mid-write -- never sees a torn document."""
        doc = self.to_trajectory(elapsed_seconds)
        text = json.dumps(doc, indent=2) + "\n"
        atomic_write_bytes(path, text.encode("utf-8"))
        return doc


def sweep(requests: Sequence[RunRequest],
          workers: Optional[int] = None,
          store=_DEFAULT_STORE,
          bypass_cache: bool = False,
          resume: bool = False,
          isolate_errors: bool = True) -> SweepResult:
    """Execute a plan incrementally: serve cache-hit cells from the disk
    store, execute the rest via :func:`~repro.api.executor.run_plan`, fill
    the store back.

    ``store`` defaults to the process store (:func:`default_store`; pass
    None to run fully uncached).  ``bypass_cache`` skips lookups but still
    fills, like the daemon's no-cache header.  Results come back in plan
    order regardless of scheduling; duplicate cells (identical canonical
    form) execute once and report ``deduplicated``.

    Robustness: a cell whose execution raises becomes an ``error`` outcome
    and the sweep *continues* (``isolate_errors=False`` restores
    fail-fast).  With a store, every completed cell is journaled (under
    ``<store root>/sweeps/``, atomically) as the sweep progresses;
    ``resume=True`` serves journaled-complete cells of an identical
    interrupted plan from the store as ``resumed`` without re-executing --
    journaled ``error`` cells are retried.  A sweep that finishes with no
    error cells removes its journal.
    """
    if store is _DEFAULT_STORE:
        store = default_store()
    if resume and store is None:
        raise ValueError("--resume needs a disk store (the journal lives "
                         "under the cache directory)")
    cells = []
    for index, request in enumerate(requests):
        canonical = canonical_request(request)
        cells.append(SweepCell(index=index, request=request,
                               canonical=canonical,
                               key=cache_keys.cache_key("run", canonical)))
    primary: Dict[str, SweepCell] = {}
    for cell in cells:
        primary.setdefault(cell.key, cell)

    journal = (SweepJournal.for_plan(store.root, [cell.key for cell in cells])
               if store is not None else None)

    payloads: Dict[str, dict] = {}
    statuses: Dict[str, str] = {}
    misses: List[SweepCell] = []
    for key, cell in primary.items():
        # Resume first: a journaled-complete cell is served even under
        # bypass_cache -- resuming exists precisely to not redo that work.
        if resume and journal is not None and journal.complete(key):
            body = store.get(RESULT_KIND, key)
            if body is not None:
                try:
                    payloads[key] = json.loads(body.decode("utf-8"))
                    statuses[key] = "resumed"
                    continue
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass  # journaled but unreadable: fall through, re-run
        body = (store.get(RESULT_KIND, key)
                if store is not None and not bypass_cache else None)
        if body is not None:
            try:
                payloads[key] = json.loads(body.decode("utf-8"))
                statuses[key] = "hit"
                if journal is not None:
                    journal.record(key, "hit")
                continue
            except (UnicodeDecodeError, json.JSONDecodeError):
                # Integrity-checked bytes that are not JSON mean the entry
                # was filled by something else entirely; re-execute.
                pass
        misses.append(cell)

    # Shared-cache-aware scheduling: adjacent cells of one (platform,
    # workload) share compiled modules, so grouping them lets a worker's
    # warmed compile memo -- and a single disk-store module entry -- serve
    # whole stretches of the plan instead of interleaving configurations.
    ordered = sorted(misses, key=lambda cell: (
        cell.platform, cell.workload, cell.cpus, cell.index))

    def deliver(position: int, outcome) -> None:
        """Store + journal one executed cell the moment it completes, so a
        sweep killed mid-plan has durably recorded everything it finished."""
        cell = ordered[position]
        if isinstance(outcome, RunFailure):
            error = {"type": outcome.error_type, "message": outcome.message,
                     "cache_key": outcome.cache_key or cell.key}
            payloads[cell.key] = {"error": error}
            statuses[cell.key] = "error"
            if journal is not None:
                journal.record(cell.key, "error", error=error)
            return
        payload = {"run": outcome.deterministic_dict(),
                   "renderings": outcome.renderings()}
        payloads[cell.key] = payload
        statuses[cell.key] = "executed"
        if store is not None:
            store.put(RESULT_KIND, cell.key, cache_keys.encode_body(payload))
        if journal is not None:
            journal.record(cell.key, "executed")

    run_plan([cell.request for cell in ordered], workers=workers,
             isolate_errors=isolate_errors, on_outcome=deliver)

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    for cell in cells:
        status = statuses[cell.key]
        if primary[cell.key] is not cell and status != "error":
            status = "deduplicated"
        outcomes[cell.index] = CellOutcome(cell=cell, status=status,
                                           payload=payloads[cell.key])
    if journal is not None and not any(
            outcome.failed for outcome in outcomes):
        journal.remove()
    return SweepResult(outcomes=list(outcomes),
                       cache_stats=store.stats() if store is not None
                       else None,
                       bypassed=bypass_cache)
