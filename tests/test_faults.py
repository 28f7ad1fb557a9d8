"""The fault-injection subsystem: spec parsing, determinism, fault points.

The contract under test, end to end: an injected fault may cost time (a
retry, a re-execution, a cache miss) but can never change served bytes --
every corruption lands *under* the disk store's integrity envelope, so the
defect is detected and the payload recomputed.
"""

import json
import os

import pytest

from repro import faults
from repro.api.executor import RunRequest, canonical_request
from repro.api.journal import SweepJournal, plan_digest
from repro.api.spec import ProfileSpec
from repro.api.sweep import build_plan, sweep
from repro.cache.keys import RESULT_KIND, cache_key
from repro.cache.store import DiskCache
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.workloads import registry


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with no plan installed."""
    faults.install(None)
    yield
    faults.install(None)
    faults.reset()


# -- spec parsing -------------------------------------------------------------------------


def test_parse_multi_clause_spec():
    plan = FaultPlan.parse(
        "store.read_corrupt:rate=0.5:seed=7;pool.worker_crash:every=3")
    assert plan.spec_for("store.read_corrupt") == FaultSpec(
        point="store.read_corrupt", rate=0.5, seed=7)
    assert plan.spec_for("pool.worker_crash") == FaultSpec(
        point="pool.worker_crash", every=3)
    assert plan.spec_for("daemon.conn_drop") is None
    assert bool(plan)
    assert not bool(FaultPlan.parse(""))


@pytest.mark.parametrize("spec, match", [
    ("no.such_point", "unknown fault point"),
    ("store.read_corrupt:rate=0.5:every=2", "both rate= and every="),
    ("store.read_corrupt:rate=1.5", r"in \(0, 1\]"),
    ("store.read_corrupt:rate=banana", "malformed fault setting"),
    ("store.read_corrupt:every=0", "must be >= 1"),
    ("store.read_corrupt:times=0", "must be >= 1"),
    ("daemon.stall_response:ms=-1", "must be >= 0"),
    ("store.read_corrupt:bogus=1", "bad fault setting"),
    ("store.read_corrupt:rate=0.5:rate=0.5", "duplicate fault setting"),
    ("store.read_corrupt;store.read_corrupt", "appears twice"),
    # The run_many-only twins of pool.* were folded into them.
    *[(f"executor.{point}", "unknown fault point")
      for point in ("worker_crash", "slow_worker")],
])
def test_parse_rejects_malformed_specs(spec, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan.parse(spec)


def test_malformed_env_spec_raises_at_first_evaluation(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "definitely.not_a_point")
    faults.reset()
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.fires("store.read_corrupt")


def test_env_spec_is_parsed_lazily_and_cached(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "compiler.compile_fail:every=2")
    faults.reset()
    injector = faults.active()
    assert injector is not None
    assert injector.spec_for("compiler.compile_fail").every == 2
    # Cached: changing the env without reset() does not re-parse.
    monkeypatch.setenv("REPRO_FAULTS", "garbage")
    assert faults.active() is injector


# -- decision determinism -----------------------------------------------------------------


def test_rate_decisions_are_a_pure_function_of_the_clause():
    decisions = []
    for _attempt in range(2):
        injector = faults.install("daemon.conn_drop:rate=0.3:seed=11")
        decisions.append([injector.fire("daemon.conn_drop")
                          for _ in range(64)])
    assert decisions[0] == decisions[1]
    assert any(decisions[0]) and not all(decisions[0])


def test_every_nth_fires_periodically():
    injector = faults.install("pool.slow_worker:every=3")
    fired = [injector.fire("pool.slow_worker") for _ in range(9)]
    assert fired == [False, False, True] * 3


def test_times_caps_total_injections():
    injector = faults.install("daemon.conn_drop:times=2")
    fired = [injector.fire("daemon.conn_drop") for _ in range(5)]
    assert fired == [True, True, False, False, False]
    assert injector.stats()["daemon.conn_drop"]["injections"] == 2


def test_corruption_is_deterministic_per_seed():
    data = bytes(range(64))
    first = faults.install(
        "store.read_corrupt:seed=5").corrupt_bytes("store.read_corrupt", data)
    second = faults.install(
        "store.read_corrupt:seed=5").corrupt_bytes("store.read_corrupt", data)
    other = faults.install(
        "store.read_corrupt:seed=6").corrupt_bytes("store.read_corrupt", data)
    assert first == second
    assert first != data
    assert sum(bin(a ^ b).count("1")
               for a, b in zip(first, data)) == 1, "exactly one bit flips"
    assert other != first


def test_injections_are_counted_in_telemetry():
    from repro import telemetry
    counter = telemetry.REGISTRY.counter(
        "repro_faults_injected_total",
        "Faults injected by repro.faults, labelled by fault point.")
    before = counter.value(point="daemon.conn_drop")
    faults.install("daemon.conn_drop")
    assert faults.fires("daemon.conn_drop")
    assert counter.value(point="daemon.conn_drop") == before + 1


# -- store fault points: corrupted entries are misses, never wrong bytes ------------------


def _fresh_store(tmp_path, name):
    return DiskCache(str(tmp_path / name))


def test_write_corrupt_entry_is_detected_on_read(tmp_path):
    store = _fresh_store(tmp_path, "wc")
    faults.install("store.write_corrupt")
    assert store.put("result", "k" * 64, b"payload-bytes")
    faults.install(None)
    assert store.get("result", "k" * 64) is None
    assert store.integrity_failures == 1
    # A clean re-fill serves the true bytes again.
    assert store.put("result", "k" * 64, b"payload-bytes")
    assert store.get("result", "k" * 64) == b"payload-bytes"


def test_partial_write_is_detected_on_read(tmp_path):
    store = _fresh_store(tmp_path, "pw")
    faults.install("store.partial_write")
    assert store.put("result", "t" * 64, b"payload-bytes" * 16)
    faults.install(None)
    assert store.get("result", "t" * 64) is None
    assert store.integrity_failures == 1


def test_read_corrupt_turns_hits_into_misses_never_wrong_bytes(tmp_path):
    store = _fresh_store(tmp_path, "rc")
    assert store.put("result", "r" * 64, b"the-true-bytes")
    faults.install("store.read_corrupt:rate=0.5:seed=3")
    served = []
    for _ in range(32):
        body = store.get("result", "r" * 64)
        if body is None:
            # The corrupted read removed the entry; refill (the sweep
            # engine's re-execute-and-refill, in miniature; the plan has
            # no write-side faults, so the fill lands clean).
            store.put("result", "r" * 64, b"the-true-bytes")
        else:
            served.append(body)
    assert served, "some reads must survive a 50% corruption rate"
    assert all(body == b"the-true-bytes" for body in served)
    assert store.integrity_failures > 0


# -- compiler fault point -----------------------------------------------------------------


def test_compile_fail_raises_injected_fault(tmp_path, monkeypatch):
    from repro.compiler.cache import clear_memory_cache, compile_source_cached
    from repro.platforms import platform_by_name
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    source = "long f(long a) { return a + 1; }\n"
    descriptor = platform_by_name("x60")
    clear_memory_cache()
    faults.install("compiler.compile_fail")
    with pytest.raises(InjectedFault, match="compiler.compile_fail"):
        compile_source_cached(source, "faulty.c", descriptor, False)
    # The fault fires only on a true compile: once compiled cleanly, the
    # memoized module serves without re-evaluating the point.
    faults.install(None)
    module = compile_source_cached(source, "faulty.c", descriptor, False)
    faults.install("compiler.compile_fail")
    assert compile_source_cached(source, "faulty.c", descriptor, False) \
        is module


# -- sweep robustness: per-cell isolation, journal, resume --------------------------------


class _BoomWorkload:
    """A workload whose executable raises (per-cell isolation tests)."""

    name = "boom-on-run"
    kind = "synthetic"
    description = "raises mid-run (fault-isolation tests)"

    @property
    def executable(self):
        raise RuntimeError("boom: injected workload failure")


@pytest.fixture()
def boom_workload():
    registry.register("boom-on-run", _BoomWorkload)
    yield
    registry._factories.pop("boom-on-run", None)
    registry._descriptions.pop("boom-on-run", None)


def _cell_key(platform, workload):
    request = build_plan([platform], [workload])[0]
    return cache_key("run", canonical_request(request))


def test_sweep_isolates_failing_cells(tmp_path, boom_workload):
    store = DiskCache(str(tmp_path / "iso"))
    plan = (build_plan(["x60"], ["memset"])
            + build_plan(["x60"], ["boom-on-run"]))
    result = sweep(plan, workers=0, store=store)
    assert [outcome.status for outcome in result.outcomes] == [
        "executed", "error"]
    failure = result.outcomes[1].failure
    assert failure["type"] == "RuntimeError"
    assert "boom" in failure["message"]
    assert failure["cache_key"] == result.outcomes[1].cell.key
    # The journal survives (the sweep did not fully succeed) and records
    # the completed cell as complete, the failed one as an error.
    journal = SweepJournal.for_plan(
        store.root, [outcome.cell.key for outcome in result.outcomes])
    assert journal.complete(result.outcomes[0].cell.key)
    assert journal.statuses[result.outcomes[1].cell.key] == "error"


def test_sweep_fail_fast_when_isolation_is_off(tmp_path, boom_workload):
    plan = build_plan(["x60"], ["boom-on-run"])
    with pytest.raises(RuntimeError, match="boom"):
        sweep(plan, workers=0, store=DiskCache(str(tmp_path / "ff")),
              isolate_errors=False)


def test_successful_sweep_removes_its_journal(tmp_path):
    store = DiskCache(str(tmp_path / "ok"))
    plan = build_plan(["x60"], ["memset"])
    result = sweep(plan, workers=0, store=store)
    assert result.counts()["error"] == 0
    digest = plan_digest([outcome.cell.key for outcome in result.outcomes])
    assert not os.path.exists(
        os.path.join(store.root, "sweeps", f"{digest}.jsonl"))


def test_resume_skips_journaled_cells_and_retries_errors(tmp_path):
    store = DiskCache(str(tmp_path / "resume"))
    plan = build_plan(["x60"], ["memset", "dot-product"])
    # Fill the store for the first cell the way an interrupted sweep would
    # have: execute it alone, then hand-write the 2-cell plan's journal.
    first_only = sweep([plan[0]], workers=0, store=DiskCache(store.root))
    keys = [cache_key("run", canonical_request(request)) for request in plan]
    journal = SweepJournal.for_plan(store.root, keys)
    journal.record(keys[0], "executed")
    journal.record(keys[1], "error",
                   error={"type": "WorkerCrash", "message": "killed"})

    result = sweep(plan, workers=0, store=store, resume=True)
    assert [outcome.status for outcome in result.outcomes] == [
        "resumed", "executed"]
    assert result.outcomes[0].body() == first_only.outcomes[0].body()
    # The resumed sweep succeeded fully, so the journal is gone.
    assert not os.path.exists(journal.path)


def test_resume_serves_journaled_cells_even_under_bypass(tmp_path):
    store = DiskCache(str(tmp_path / "rb"))
    plan = build_plan(["x60"], ["memset"])
    sweep(plan, workers=0, store=DiskCache(store.root))
    keys = [cache_key("run", canonical_request(request)) for request in plan]
    journal = SweepJournal.for_plan(store.root, keys)
    journal.record(keys[0], "executed")
    result = sweep(plan, workers=0, store=store, resume=True,
                   bypass_cache=True)
    assert result.outcomes[0].status == "resumed"


def test_resume_requires_a_store():
    with pytest.raises(ValueError, match="resume"):
        sweep(build_plan(["x60"], ["memset"]), workers=0, store=None,
              resume=True)


def test_journal_ignores_a_different_plans_records(tmp_path):
    store = DiskCache(str(tmp_path / "dj"))
    keys_a = ["a" * 64, "b" * 64]
    journal_a = SweepJournal.for_plan(store.root, keys_a)
    journal_a.record(keys_a[0], "executed")
    # A different plan gets a different digest -> different journal file,
    # so its completions can never leak across plans.
    journal_b = SweepJournal.for_plan(store.root, ["c" * 64])
    assert journal_b.path != journal_a.path
    assert not journal_b.complete(keys_a[0])
    # Reloading the same plan sees the same records.
    again = SweepJournal.for_plan(store.root, keys_a)
    assert again.complete(keys_a[0])


def test_journal_file_is_valid_jsonl(tmp_path):
    store = DiskCache(str(tmp_path / "jf"))
    keys = ["d" * 64, "e" * 64]
    journal = SweepJournal.for_plan(store.root, keys)
    journal.record(keys[0], "executed")
    journal.record(keys[1], "hit")
    with open(journal.path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle.read().splitlines()]
    assert lines[0]["digest"] == plan_digest(keys)
    assert {record["key"]: record["status"]
            for record in lines[1:]} == {keys[0]: "executed",
                                         keys[1]: "hit"}


# -- worker-pool fault points -------------------------------------------------------------


def test_slow_worker_fault_delays_but_preserves_results():
    faults.install("pool.slow_worker:ms=1")
    request = RunRequest(platform="SpacemiT X60", workload="memset",
                         params={"n": 64},
                         spec=ProfileSpec(analyses=("stat",)))
    from repro.api.executor import execute_request
    slow = execute_request(request)
    faults.install(None)
    fast = execute_request(request)
    assert slow.deterministic_dict() == fast.deterministic_dict()


def test_worker_crash_point_is_inert_outside_worker_processes():
    # In the parent process the crash point must never fire -- otherwise
    # the test process itself would die.  That must hold even after an
    # inline pool ran in this process (regression: a process-global "in a
    # worker" flag left behind by in-process pool use armed this test to
    # os._exit the whole pytest process).
    from repro.api.executor import WorkerPool, execute_request
    request = RunRequest(platform="SpacemiT X60", workload="memset",
                         params={"n": 64},
                         spec=ProfileSpec(analyses=("stat",)))
    pool = WorkerPool(0)
    try:
        pool.submit(execute_request, request).result(timeout=120)
    finally:
        pool.shutdown()
    faults.install("pool.worker_crash")
    run = execute_request(request)
    assert run.deterministic_dict()["stat"]["counts"]
