"""The memory-access recorder sees one ordered stream on every path.

``Machine.set_access_recorder`` observes each access a hart's caches see:
each memory op of positive size that ``Machine.execute`` retires with an
address, and each ``(address, size_bytes, is_store)`` that
``Machine.execute_batch`` receives in ``mem_accesses`` (batched ops name
only their site).  The ordered list must be identical

* between batched and per-op retirement of a random synthetic trace;
* between fast and reference dispatch of ``matmul-tiled``;
* per hart, between fast and reference dispatch of ``stream-triad-mt`` on
  2 harts;
* between batches of site ops and per-op retirement of the same ops with
  addresses, memory ops of size 0 (which touch no cache) among them.

``tests/test_static_races.py`` compares the recorded access *sets* with the
static race detector; this pins their order and multiplicity too.
"""

import pytest

from repro.api import ProfileSpec, Session
from repro.platforms import Machine, spacemit_x60
from repro.workloads import registry
from repro.workloads.synthetic import TraceExecutor
from test_horizon_batching import addressed_segments, random_tree, retire_sites

PLATFORM = "SpacemiT X60"
COUNTING = ProfileSpec().counting()


def _recording(machine) -> list:
    accesses: list = []
    machine.set_access_recorder(
        lambda address, size, is_store: accesses.append(
            (address, size, is_store)))
    return accesses


def _assert_loads_and_stores(accesses) -> None:
    assert {is_store for *_, is_store in accesses} == {False, True}
    assert all(size > 0 for _, size, _ in accesses)


def _trace_accesses(seed: int, batched: bool) -> list:
    machine = Machine(spacemit_x60())
    accesses = _recording(machine)
    TraceExecutor(machine, machine.create_task("trace"), seed=seed,
                  batched=batched).run(random_tree(seed), invocations=2)
    return accesses


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_trace_batched_matches_per_op(seed):
    batched = _trace_accesses(seed, True)
    assert batched == _trace_accesses(seed, False)
    _assert_loads_and_stores(batched)


def _session_accesses(name: str, cpus: int, spec: ProfileSpec,
                      **params) -> list:
    """One counting run of *name*; each hart's recorded accesses."""
    session = Session(PLATFORM)
    machine = session.smp_machine(cpus, True)
    harts = [machine] if cpus == 1 else [machine.hart(h) for h in range(cpus)]
    recorded = [_recording(hart) for hart in harts]
    session.run(registry.create(name, **params),
                spec.with_vendor_driver(True).with_cpus(cpus))
    return recorded


def test_matmul_fast_dispatch_matches_reference():
    fast = _session_accesses("matmul-tiled", 1, COUNTING, n=8)
    assert fast == _session_accesses("matmul-tiled", 1,
                                     COUNTING.without_fast_paths(), n=8)
    _assert_loads_and_stores(fast[0])


def test_triad_two_harts_fast_dispatch_matches_reference():
    fast = _session_accesses("stream-triad-mt", 2, COUNTING, n=256)
    assert fast == _session_accesses("stream-triad-mt", 2,
                                     COUNTING.without_fast_paths(), n=256)
    for accesses in fast:
        _assert_loads_and_stores(accesses)


@pytest.mark.parametrize("seed", range(2))
def test_site_ops_match_addressed_per_op(seed):
    recorded = []
    for batched in (True, False):
        machine = Machine(spacemit_x60())
        recorded.append(_recording(machine))
        retire_sites(machine, machine.create_task("sites"), seed, batched)
    assert recorded[0] == recorded[1]
    _assert_loads_and_stores(recorded[0])
    sizes = [op.size_bytes for ops in addressed_segments(seed) for op in ops
             if op.is_memory]
    assert 0 in sizes and len(recorded[0]) == sum(map(bool, sizes))
