"""Seeded chaos suite: high-rate fault injection, byte-identical service.

The system-level invariant every test here enforces: injected faults may
cost latency or availability (retries, re-executions, 503s) but can never
change served bytes.  Corruption lands under the disk store's integrity
envelope (defect -> miss -> recompute), transport faults cost the client a
retry of an idempotent request, and worker crashes trip the breaker into
degraded cache-only mode -- hits keep serving the exact cached bytes.

The kill-and-resume test drives the full sweep robustness path: SIGKILL
mid-plan, then ``repro sweep --resume`` completes the plan without
re-executing any journaled cell.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.api.sweep import build_plan, sweep
from repro.cache.store import DiskCache
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.daemon import BackgroundServer, ServiceConfig

_COUNTING = {"analyses": ["stat"]}


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.install(None)
    yield
    faults.install(None)
    faults.reset()


# -- store chaos: 50% corruption, byte-identical sweeps -----------------------------------


def test_sweep_serves_identical_bytes_under_heavy_store_faults(tmp_path):
    """Every store fault point at up to 50%: reads flip bits, writes flip
    bits, fills truncate -- and every served payload still matches the
    fault-free golden byte for byte."""
    plan = build_plan(["x60"], ["memset", "dot-product"])
    golden = sweep(plan, workers=0, store=None)
    golden_bodies = {outcome.cell.key: outcome.body()
                     for outcome in golden.outcomes}

    faults.install("store.read_corrupt:rate=0.5:seed=1;"
                   "store.write_corrupt:rate=0.5:seed=2;"
                   "store.partial_write:rate=0.5:seed=3")
    store_root = str(tmp_path / "chaos-store")
    injured = 0
    for _round in range(6):
        store = DiskCache(store_root)
        result = sweep(plan, workers=0, store=store)
        for outcome in result.outcomes:
            assert outcome.body() == golden_bodies[outcome.cell.key], (
                f"round {_round}: {outcome.status} cell served wrong bytes")
        injured += store.integrity_failures
    assert injured > 0, "50% rates must actually corrupt something"
    stats = faults.active().stats()
    assert any(point["injections"] for point in stats.values())


def test_cache_hits_survive_corruption_as_recomputes(tmp_path):
    """A hit whose entry was corrupted becomes an executed cell with the
    same bytes -- corruption costs time, never wrongness."""
    plan = build_plan(["x60"], ["memset"])
    store_root = str(tmp_path / "hit-store")
    baseline = sweep(plan, workers=0, store=DiskCache(store_root))
    body = baseline.outcomes[0].body()

    faults.install("store.read_corrupt")  # every read corrupts
    result = sweep(plan, workers=0, store=DiskCache(store_root))
    assert result.outcomes[0].status == "executed", \
        "the corrupted entry was detected and re-executed"
    assert result.outcomes[0].body() == body


# -- daemon transport chaos ---------------------------------------------------------------


def test_client_retries_through_dropped_and_stalled_responses():
    request = {"platform": "x60", "workload": "memset", "params": {"n": 64},
               "spec": dict(_COUNTING)}
    config = ServiceConfig(port=0, workers=0, warm_kernels=False)
    with BackgroundServer(config) as server:
        plain = ServiceClient(server.address)
        golden = plain.run(request)

        faults.install("daemon.conn_drop:rate=0.4:seed=2;"
                       "daemon.stall_response:rate=0.3:seed=3:ms=20")
        retrying = ServiceClient(
            server.address,
            retry=RetryPolicy(attempts=8, base_delay=0.01, deadline=30.0))
        for _attempt in range(10):
            assert retrying.run(request) == golden
        stats = faults.active().stats()
        dropped = stats["daemon.conn_drop"]["injections"]
        assert dropped > 0, "40% must actually drop some connections"


def test_unretried_client_sees_clean_connection_errors():
    """Without a policy a dropped connection surfaces as a structured
    Unreachable ServiceError -- not a hang, not garbage bytes."""
    request = {"platform": "x60", "workload": "memset", "params": {"n": 64},
               "spec": dict(_COUNTING)}
    config = ServiceConfig(port=0, workers=0, warm_kernels=False)
    with BackgroundServer(config) as server:
        client = ServiceClient(server.address)
        golden = client.run(request)
        faults.install("daemon.conn_drop")  # drop every response
        with pytest.raises(ServiceError) as excinfo:
            client.run(request)
        assert excinfo.value.status == 0
        faults.install(None)
        assert client.run(request) == golden


# -- crash-loop breaker end to end --------------------------------------------------------


def _run_request(n):
    return {"platform": "x60", "workload": "memset", "params": {"n": n},
            "spec": dict(_COUNTING)}


def test_breaker_degrades_to_cache_only_and_probes_back():
    config = ServiceConfig(port=0, workers=0, warm_kernels=False,
                           breaker_threshold=2, breaker_window=60.0,
                           breaker_cooldown=0.2, quarantine_after=10)
    with BackgroundServer(config) as server:
        client = ServiceClient(server.address)
        cached = client.run(_run_request(64))  # fill one entry pre-chaos

        # Two distinct requests crash their (inline) worker: breaker opens.
        faults.install("pool.worker_crash:times=2")
        for n in (128, 256):
            with pytest.raises(ServiceError) as excinfo:
                client.run(_run_request(n))
            assert (excinfo.value.status,
                    excinfo.value.kind) == (500, "WorkerCrashed")

        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["breaker"]["state"] in ("open", "half_open")

        # Degraded cache-only mode: the hit still serves its exact bytes...
        assert client.run(_run_request(64)) == cached
        # ...while a miss gets 503 + Retry-After instead of a worker.
        with pytest.raises(ServiceError) as excinfo:
            client.run(_run_request(512))
        assert (excinfo.value.status, excinfo.value.kind) == (503, "Degraded")
        assert excinfo.value.retry_after is not None

        # Past the cooldown the next miss is the half-open probe; the crash
        # fault is exhausted (times=2), so it succeeds and closes the
        # breaker.
        time.sleep(0.3)
        assert "run" in client.run(_run_request(512))
        assert client.healthz()["status"] == "ok"
        assert client.healthz()["breaker"]["state"] == "closed"


def test_breaker_quarantines_a_poisoned_request():
    config = ServiceConfig(port=0, workers=0, warm_kernels=False,
                           breaker_threshold=10, breaker_window=60.0,
                           quarantine_after=2)
    with BackgroundServer(config) as server:
        client = ServiceClient(server.address)
        faults.install("pool.worker_crash:times=2")
        poisoned = _run_request(1024)
        for _attempt in range(2):
            with pytest.raises(ServiceError) as excinfo:
                client.run(poisoned)
            assert excinfo.value.kind == "WorkerCrashed"
        # Third attempt: refused outright without touching the pool, even
        # though the fault is exhausted and execution would now succeed.
        with pytest.raises(ServiceError) as excinfo:
            client.run(poisoned)
        assert (excinfo.value.status,
                excinfo.value.kind) == (503, "Quarantined")
        # Other requests are unaffected.
        assert "run" in client.run(_run_request(64))
        assert client.healthz()["breaker"]["quarantined"], \
            "healthz names the quarantined key"


# -- kill-and-resume sweep ----------------------------------------------------------------


def _sweep_script(resume):
    flag = ", '--resume'" if resume else ""
    return (
        "from repro.toolchain.cli import main\n"
        "import sys\n"
        "sys.exit(main(['sweep', '--platforms', 'x60',\n"
        "               '--workloads', 'memset', 'dot-product',\n"
        f"               '--workers', '0', '--out', 'traj.json'{flag}]))\n")


def test_sigkill_mid_sweep_then_resume_completes_the_plan(tmp_path):
    """SIGKILL a sweep after its first journaled cell; --resume finishes
    the plan, re-executing nothing that was journaled complete."""
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir,
               REPRO_FAULTS="pool.slow_worker:ms=1500",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(os.getcwd(), "src"),
                    os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    env.pop("REPRO_DISK_CACHE", None)
    process = subprocess.Popen(
        [sys.executable, "-c", _sweep_script(resume=False)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(tmp_path))
    journal_glob = os.path.join(cache_dir, "sweeps", "*.jsonl")

    def journaled_executions():
        for path in glob.glob(journal_glob):
            try:
                with open(path, encoding="utf-8") as handle:
                    records = [json.loads(line)
                               for line in handle.read().splitlines()[1:]]
            except (OSError, json.JSONDecodeError):
                continue
            done = {record["key"] for record in records
                    if record["status"] == "executed"}
            if done:
                return done
        return set()

    try:
        deadline = time.monotonic() + 120
        completed = set()
        while time.monotonic() < deadline:
            completed = journaled_executions()
            if completed or process.poll() is not None:
                break
            time.sleep(0.01)
        assert completed, "no cell was journaled before the timeout"
        assert process.poll() is None, "the sweep finished before the kill"
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    # The journal survived the SIGKILL with the completed cells recorded.
    assert journaled_executions() == completed

    env["REPRO_FAULTS"] = ""  # resume runs fault-free
    resumed = subprocess.run(
        [sys.executable, "-c", _sweep_script(resume=True)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(tmp_path), timeout=300)
    assert resumed.returncode == 0, resumed.stdout
    totals = json.loads(
        (tmp_path / "traj.json").read_text())["totals"]
    assert totals["cells"] == 2
    assert totals["resumed"] == len(completed), \
        "every journaled cell resumed instead of re-executing"
    assert totals["resumed"] + totals["executed"] + totals["hits"] == 2
    assert totals["failed"] == 0
    # The completed plan removed its journal.
    assert not glob.glob(journal_glob)
