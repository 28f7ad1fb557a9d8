"""Static race certification vs recorded per-hart access sets.

For every shipped parallel workload and every hart count the static
detector's verdict must match what a real instrumented SMP run records:
containment (every recorded heap access inside the thread's static
regions) and verdict agreement (disjoint/shared/racy over recorded bytes).
Plus the negative control: an intentionally racy workload -- two threads
handed the *same* triad arrays -- must be flagged ``racy`` statically.
"""

import pytest

from repro.analysis.races import (
    KernelShardPlan,
    analyze_parallel_workload,
    check_consistency,
    record_thread_access_sets,
    supports_shard_plans,
)
from repro.api import ProfileSpec
from repro.platforms import platform_by_name
from repro.vm import Memory
from repro.workloads import registry
from repro.workloads.kernels import STREAM_TRIAD_SOURCE

DESCRIPTOR = platform_by_name("SpacemiT X60")
SPEC = ProfileSpec().counting()

PARAMS = {
    "matmul-parallel": {"n": 12},
    "stream-triad-mt": {"n": 256},
    "forkjoin-calltree": {"scale": 1},
}

#: The constructive sharing story of each shipped parallel workload:
#: matmul shares its B (and A) inputs read-only once there are >= 2
#: threads; the triad slices and the fork/join traces are fully disjoint.
EXPECTED = {
    ("matmul-parallel", 1): "disjoint",
    ("matmul-parallel", 2): "shared",
    ("matmul-parallel", 4): "shared",
    ("stream-triad-mt", 1): "disjoint",
    ("stream-triad-mt", 2): "disjoint",
    ("stream-triad-mt", 4): "disjoint",
    ("forkjoin-calltree", 1): "disjoint",
    ("forkjoin-calltree", 2): "disjoint",
    ("forkjoin-calltree", 4): "disjoint",
}


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_static_verdict_matches_recorded_run(name, cpus):
    workload = registry.create(name, **PARAMS[name])
    report = analyze_parallel_workload(workload, cpus, SPEC, DESCRIPTOR)
    assert report.verdict == EXPECTED[name, cpus]
    assert not report.notes, report.notes

    recorded = record_thread_access_sets(workload, cpus, SPEC, DESCRIPTOR)
    assert sorted(recorded.by_thread) == sorted(
        region.thread for region in {r.thread: r for r in report.regions}.values()
    )
    assert recorded.dynamic_verdict() == report.verdict
    assert check_consistency(report, recorded) == []


def test_matmul_shared_overlaps_are_all_read_read():
    workload = registry.create("matmul-parallel", n=12)
    report = analyze_parallel_workload(workload, 2, SPEC, DESCRIPTOR)
    assert report.overlaps
    assert all(overlap.kind == "shared" for overlap in report.overlaps)
    shared = {overlap.first.label for overlap in report.overlaps}
    shared |= {overlap.second.label for overlap in report.overlaps}
    # Only the input matrices are shared; C rows are thread-private.
    assert "C" not in shared


class _RacyTriad:
    """Two threads handed the same arrays: both write a[0:n] -- a race."""

    name = "racy-triad"

    def __init__(self, n: int = 64):
        self.n = n
        memory = Memory()
        self.args = (
            memory.alloc_float_array([0.0] * n),
            memory.alloc_float_array([1.0] * n),
            memory.alloc_float_array([2.0] * n),
            3.0,
            n,
        )

    def shard_plans(self, cpus, spec):
        return [
            KernelShardPlan(thread=f"racy-worker-{index}",
                            source=STREAM_TRIAD_SOURCE, filename="triad.c",
                            function="triad", args=self.args)
            for index in range(max(1, cpus))
        ]


def test_intentionally_racy_workload_is_flagged():
    report = analyze_parallel_workload(_RacyTriad(), 2, SPEC, DESCRIPTOR)
    assert report.verdict == "racy"
    racy = [o for o in report.overlaps if o.kind == "racy"]
    assert racy
    # The written array is part of at least one racy overlap.
    labels = {o.first.label for o in racy} | {o.second.label for o in racy}
    assert "a" in labels


def test_workload_without_shard_plans_is_unknown_not_guessed():
    class Opaque:
        name = "opaque"

    assert not supports_shard_plans(Opaque())
    report = analyze_parallel_workload(Opaque(), 2, SPEC, DESCRIPTOR)
    assert report.verdict == "unknown"
    assert report.notes


def test_report_to_dict_round_trips_regions_and_overlaps():
    workload = registry.create("matmul-parallel", n=12)
    report = analyze_parallel_workload(workload, 2, SPEC, DESCRIPTOR)
    payload = report.to_dict()
    assert payload["workload"] == "matmul-parallel"
    assert payload["verdict"] == report.verdict
    assert len(payload["regions"]) == len(report.regions)
    assert all(r["lo"] < r["hi"] for r in payload["regions"])
    assert len(payload["overlaps"]) == len(report.overlaps)
