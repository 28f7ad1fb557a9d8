"""Tests for the profiling service: wire format, cache, pool, daemon, CLI.

The expensive fixtures run one in-process daemon (``workers=0``: the same
worker functions on a daemon-side thread) per module and drive it over real
HTTP with the stdlib client.  Multiprocess behavior (worker crashes, pool
respawn) gets its own short-lived servers.

The load-bearing property throughout: every export the service caches is
byte-reproducible (``Run.deterministic_dict`` strips the one wall-clock
field), so a cache hit must serve *byte-identical* content to the miss that
filled it, and ``--server`` CLI output must be byte-identical to the
in-process CLI modulo the stripped ``timings`` key.
"""

import json
import os
import re
import socket
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProfileSpec, Session
from repro.api.executor import RunRequest, WorkerCrash, WorkerPool, run_many
from repro.api.run import Run, strip_timings
from repro.api.spec import ANALYSES, DEFAULT_EVENTS
from repro.cpu.events import HwEvent
from repro.service import wire
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import BackgroundServer, ServiceConfig
from repro.workloads import registry

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


# -- shared servers -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    """One inline-mode daemon for every cheap HTTP test in this module."""
    config = ServiceConfig(port=0, workers=0, warm_kernels=False)
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


#: The ``endpoint`` label of ``POST /run`` series, as ``/metrics`` renders it.
RUN = '{endpoint="POST /run"}'


def _value(metrics: dict, family: str, labels: str = ""):
    """One series of a ``/metrics`` JSON family (``""``: the unlabeled one)."""
    return metrics[family]["series"].get(labels, 0)


def _states(metrics: dict, family: str) -> dict:
    """A ``{state=...}``-labeled gauge family as a ``state -> value`` dict."""
    return {re.fullmatch(r'\{state="(.*)"\}', labels).group(1): value
            for labels, value in metrics[family]["series"].items()}


def _post_raw(address: str, path: str, payload: dict,
              headers: dict = None):
    """POST and return (status, raw bytes, headers) -- for byte-identity."""
    request = urllib.request.Request(
        address + path, data=json.dumps(payload).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json",
                                **(headers or {})})
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, response.read(), dict(response.headers.items())


# -- wire format --------------------------------------------------------------------------


def test_cache_key_is_key_order_insensitive():
    a = wire.cache_key("run", {"platform": "x", "workload": "y"})
    b = wire.cache_key("run", {"workload": "y", "platform": "x"})
    assert a == b


def test_cache_key_separates_endpoint_namespaces():
    request = {"platform": "x", "workload": "y"}
    assert wire.cache_key("run", request) != wire.cache_key("compare", request)


def test_strip_timings_is_recursive():
    payload = {"timings": 1, "runs": [{"timings": 2, "keep": 3}],
               "nested": {"timings": 4, "deep": [{"timings": 5}]}}
    assert strip_timings(payload) == {
        "runs": [{"keep": 3}], "nested": {"deep": [{}]}}


def test_encode_body_preserves_key_order():
    assert wire.encode_body({"b": 1, "a": 2}) == b'{"b":1,"a":2}'


# -- result cache -------------------------------------------------------------------------


def test_result_cache_hit_miss_bypass_accounting():
    cache = ResultCache(max_entries=4)
    assert cache.get("k") is None
    cache.put("k", b"v")
    assert cache.get("k") == b"v"
    cache.note_bypass()
    assert cache.stats() == {
        "entries": 1, "max_entries": 4, "hits": 1, "misses": 1,
        "bypasses": 1, "evictions": 0, "hit_ratio": 0.5}


def test_result_cache_evicts_least_recently_used():
    cache = ResultCache(max_entries=2)
    cache.put("a", b"1")
    cache.put("b", b"2")
    cache.get("a")              # refresh a; b is now LRU
    cache.put("c", b"3")
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1


def test_result_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="max_entries"):
        ResultCache(max_entries=0)


# -- spec / request round trips -----------------------------------------------------------

_spec_strategy = st.builds(
    ProfileSpec,
    events=st.lists(st.sampled_from(list(HwEvent)), min_size=1, max_size=4,
                    unique=True).map(tuple),
    sample_period=st.integers(min_value=1, max_value=10**6),
    vendor_driver=st.sampled_from([None, True, False]),
    enable_vectorizer=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    invocations=st.integers(min_value=1, max_value=4),
    repeats=st.integers(min_value=1, max_value=4),
    cpus=st.integers(min_value=1, max_value=8),
    fast_dispatch=st.booleans(),
    analyses=st.lists(st.sampled_from(ANALYSES), max_size=len(ANALYSES),
                      unique=True).map(tuple),
)


@settings(max_examples=50, deadline=None)
@given(spec=_spec_strategy)
def test_profile_spec_round_trips_exactly(spec):
    assert ProfileSpec.from_dict(spec.to_dict()) == spec
    through_json = json.loads(json.dumps(spec.to_dict()))
    assert ProfileSpec.from_dict(through_json) == spec


def test_profile_spec_partial_dict_takes_defaults():
    spec = ProfileSpec.from_dict({"cpus": 2})
    assert spec.cpus == 2
    assert spec.events == DEFAULT_EVENTS


def test_profile_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown ProfileSpec key"):
        ProfileSpec.from_dict({"cpu": 2})


@settings(max_examples=25, deadline=None)
@given(spec=_spec_strategy,
       platform=st.sampled_from(["SpacemiT X60", "SiFive U74", "x60"]),
       workload=st.sampled_from(["memset", "sqlite3-like"]),
       params=st.dictionaries(st.sampled_from(["n", "scale"]),
                              st.integers(min_value=1, max_value=64),
                              max_size=1),
       vendor_driver=st.booleans())
def test_run_request_round_trips_exactly(spec, platform, workload, params,
                                         vendor_driver):
    request = RunRequest(platform=platform, workload=workload, params=params,
                         spec=spec, vendor_driver=vendor_driver)
    assert RunRequest.from_dict(request.to_dict()) == request
    through_json = json.loads(json.dumps(request.to_dict()))
    assert RunRequest.from_dict(through_json) == request


def test_run_request_wire_format_needs_names():
    request = RunRequest(platform="x60", workload=registry.create("memset"))
    with pytest.raises(ValueError, match="registry workload names"):
        request.to_dict()
    with pytest.raises(ValueError, match="unknown RunRequest key"):
        RunRequest.from_dict({"platform": "x60", "workload": "memset",
                              "sped": {}})
    with pytest.raises(ValueError, match="'platform' and 'workload'"):
        RunRequest.from_dict({"workload": "memset"})


# -- run_many satellites ------------------------------------------------------------------


class _CrashOnRun:
    """A workload that kills its worker process the moment a run touches it."""

    name = "crash-on-run"
    kind = "synthetic"
    description = "dies mid-run (worker-crash tests)"

    @property
    def executable(self):
        os._exit(3)


def test_run_many_rejects_negative_workers():
    with pytest.raises(ValueError, match=r"workers must be >= 0 \(got -1\)"):
        run_many([], workers=-1)


def test_run_many_worker_death_raises_clean_error():
    registry.register("crash-on-run", _CrashOnRun)
    try:
        requests = [RunRequest(platform="SpacemiT X60",
                               workload="crash-on-run",
                               spec=ProfileSpec(analyses=("stat",)))] * 2
        with pytest.raises(RuntimeError, match=(
                r"worker process died executing request 0 of 2 \(platform "
                r"'SpacemiT X60', workload 'crash-on-run'\)")):
            run_many(requests, workers=2)
    finally:
        registry._factories.pop("crash-on-run", None)
        registry._descriptions.pop("crash-on-run", None)


class _CrashOnce:
    """A workload whose first run anywhere kills its worker process; every
    later run profiles ``memset``.  The marker file makes "first" hold
    across processes (``O_CREAT | O_EXCL`` succeeds exactly once)."""

    name = "crash-once"
    kind = "kernel"
    description = "dies on its first run, then runs memset (retry tests)"

    def __init__(self, marker):
        self.marker = marker

    def executable(self, machine, task, spec):
        try:
            os.close(os.open(self.marker,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return registry.create("memset").executable(machine, task, spec)
        os._exit(3)


def test_run_many_worker_dying_once_is_retried_on_the_respawned_pool(
        tmp_path):
    marker = str(tmp_path / "crashed-once")
    registry.register("crash-once", lambda: _CrashOnce(marker))
    try:
        spec = ProfileSpec(analyses=("stat",))
        memsets = [RunRequest(platform=platform, workload="memset", spec=spec)
                   for platform in ("SpacemiT X60", "SiFive U74")]
        plan = [memsets[0],
                RunRequest(platform="SpacemiT X60", workload="crash-once",
                           spec=spec),
                memsets[1]]
        runs = run_many(plan, workers=2)
        assert os.path.exists(marker), "the crashing first attempt never ran"
        assert all(isinstance(run, Run) for run in runs)
        serial = run_many(memsets, workers=1)
        assert [runs[0].deterministic_dict(), runs[2].deterministic_dict()] \
            == [run.deterministic_dict() for run in serial]
    finally:
        registry._factories.pop("crash-once", None)
        registry._descriptions.pop("crash-once", None)


# -- worker pool --------------------------------------------------------------------------


def _exit_hard(_payload):
    os._exit(3)


def _echo(payload):
    return payload


def test_warm_pool_respawns_once_per_generation():
    pool = WorkerPool(workers=1)
    try:
        generation = pool.generation
        with pytest.raises(WorkerCrash):
            pool.submit(_exit_hard, {}).result(timeout=60)
        assert pool.respawn(generation) is True
        assert pool.respawn(generation) is False   # second reporter: no-op
        assert (pool.restarts, pool.generation) == (1, generation + 1)
        assert pool.submit(_echo, {"ok": 1}).result(timeout=60) == {"ok": 1}
    finally:
        pool.shutdown()


def test_warm_pool_rejects_negative_workers():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        WorkerPool(workers=-1)


# -- daemon end-to-end: determinism ------------------------------------------------------

_COUNTING = {"analyses": ["stat"]}
_SAMPLING = {"analyses": ["hotspots", "flamegraph"], "sample_period": 2000}


@pytest.mark.parametrize("platform", ["SpacemiT X60", "T-Head C910"])
@pytest.mark.parametrize("mode,spec_dict", [("counting", _COUNTING),
                                            ("sampling", _SAMPLING)])
def test_served_run_matches_local_and_cache_hit_is_byte_identical(
        server, platform, mode, spec_dict):
    request = {"platform": platform, "workload": "micro-calltree",
               "spec": dict(spec_dict)}
    status, first, headers1 = _post_raw(server.address, "/run", request)
    assert status == 200
    _status, second, headers2 = _post_raw(server.address, "/run", request)
    assert headers2["X-Repro-Cache"] == "hit"
    assert second == first, f"{platform}/{mode}: cache hit changed the bytes"

    spec = ProfileSpec.from_dict(spec_dict)
    local = Session(platform).run(registry.create("micro-calltree"), spec)
    served = json.loads(first.decode("utf-8"))
    assert served["run"] == local.deterministic_dict()
    # Byte-level: the served body embeds the exact compact dump of the dict.
    assert json.dumps(served["run"], separators=(",", ":")) == \
        json.dumps(local.deterministic_dict(), separators=(",", ":"))


def test_platform_alias_and_spelled_defaults_share_a_cache_entry(server):
    canonical = {"platform": "SpacemiT X60", "workload": "memset",
                 "params": {"n": 64}, "spec": dict(_COUNTING)}
    _status, first, _headers = _post_raw(server.address, "/run", canonical)
    aliased = {"platform": "x60", "workload": "memset", "params": {"n": 64},
               "spec": dict(_COUNTING, seed=42, cpus=1)}  # explicit defaults
    _status, second, headers = _post_raw(server.address, "/run", aliased)
    assert headers["X-Repro-Cache"] == "hit"
    assert second == first


def test_any_knob_change_misses_the_cache(server, client):
    base = {"platform": "SpacemiT X60", "workload": "memset",
            "params": {"n": 64}, "spec": dict(_COUNTING)}
    client.run(base)                                      # fill
    variants = [
        {**base, "spec": dict(_COUNTING, fast_dispatch=False)},   # spec flag
        {**base, "params": {"n": 65}},                            # params
        {**base, "spec": dict(_COUNTING, cpus=2)},                # cpus
        {**base, "vendor_driver": False},                         # driver
    ]
    for variant in variants:
        reply = client.run(variant, with_meta=True)
        assert reply.cache == "miss", f"{variant} unexpectedly hit"
    assert client.run(base, with_meta=True).cache == "hit"


def test_bypass_header_skips_lookup_but_refills(server, client):
    request = {"platform": "SpacemiT X60", "workload": "memset",
               "params": {"n": 96}, "spec": dict(_COUNTING)}
    before = _value(client.metrics(), "repro_service_executions_total", RUN)
    assert client.run(request, with_meta=True).cache == "miss"
    assert client.run(request, bypass_cache=True,
                      with_meta=True).cache == "bypass"
    after = client.metrics()
    assert _value(after, "repro_service_executions_total", RUN) == before + 2
    assert _states(after, "repro_result_cache")["bypasses"] >= 1
    # The bypass refilled the entry: the next lookup is a hit.
    assert client.run(request, with_meta=True).cache == "hit"


def test_identical_requests_execute_once(server, client):
    request = {"platform": "T-Head C910", "workload": "memset",
               "params": {"n": 128}, "spec": dict(_COUNTING)}
    first = client.run(request, with_meta=True)
    executions = _value(client.metrics(), "repro_service_executions_total",
                        RUN)
    second = client.run(request, with_meta=True)
    assert (first.cache, second.cache) == ("miss", "hit")
    assert _value(client.metrics(), "repro_service_executions_total",
                  RUN) == executions
    assert second.payload == first.payload
    # Every response -- hits included -- carries a distinct trace id.
    assert re.fullmatch(r"req-\d{6}", first.trace_id)
    assert re.fullmatch(r"req-\d{6}", second.trace_id)
    assert first.trace_id != second.trace_id


def test_plan_serves_each_request_from_the_run_cache(server, client):
    requests = [
        {"platform": "SpacemiT X60", "workload": "memset",
         "params": {"n": 160}, "spec": dict(_COUNTING)},
        {"platform": "SiFive U74", "workload": "memset",
         "params": {"n": 160}, "spec": dict(_COUNTING)},
    ]
    reply = client.plan(requests, with_meta=True)
    assert reply.payload["cache"] == ["miss", "miss"]
    assert [entry["run"]["platform"] for entry in reply.payload["runs"]] == \
        ["SpacemiT X60", "SiFive U74"]
    # The per-request entries are shared with POST /run.
    assert client.run(requests[0], with_meta=True).cache == "hit"
    again = client.plan(requests, with_meta=True)
    assert again.payload["cache"] == ["hit", "hit"]
    assert again.payload["runs"] == reply.payload["runs"]


def test_degraded_runs_are_served_not_500s(server, client):
    """Sampling on a platform without overflow interrupts degrades into
    run.errors exactly like the in-process path, and still caches."""
    request = {"platform": "SiFive U74", "workload": "micro-calltree",
               "spec": dict(_SAMPLING)}
    reply = client.run(request, with_meta=True)
    assert "sampling" in reply.payload["run"]["errors"]
    assert client.run(request, with_meta=True).cache == "hit"


# -- daemon end-to-end: error paths and backpressure -------------------------------------


def test_unknown_path_and_method_are_structured_errors(server, client):
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/nope")
    assert (excinfo.value.status, excinfo.value.kind) == (404, "NotFound")
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/healthz", {})
    assert (excinfo.value.status, excinfo.value.kind) == (
        405, "MethodNotAllowed")


def test_bad_requests_are_400s(server, client):
    cases = [
        {"platform": "not-a-platform", "workload": "memset"},
        {"platform": "x60", "workload": "not-a-workload"},
        {"platform": "x60", "workload": "memset", "spec": {"bogus": 1}},
        {"platform": "x60", "workload": "memset",
         "spec": {"analyses": ["nope"]}},
        # fast_dispatch is the one fast-path key; the others are unknown.
        {"platform": "x60", "workload": "memset",
         "spec": {"block_delta": False}},
        {"platform": "x60", "workload": "memset",
         "spec": {"verify_ir": True}},
    ]
    for payload in cases:
        with pytest.raises(ServiceError) as excinfo:
            client.run(payload)
        assert excinfo.value.status == 400, payload
        assert excinfo.value.kind == "BadRequest"


@pytest.mark.parametrize("length", ["-5", "five"])
def test_malformed_content_length_is_a_400(server, length):
    host, port = server.address.split("//")[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(f"POST /run HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode("latin-1"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _sep, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split(b" ")[1] == b"400", reply
    error = json.loads(body)["error"]
    assert (error["type"], error["message"]) == (
        "BadRequest", "malformed Content-Length")


def test_plan_flood_is_rejected_with_retry_after():
    config = ServiceConfig(port=0, workers=0, queue_limit=1,
                           warm_kernels=False)
    with BackgroundServer(config) as background:
        client = ServiceClient(background.address)
        # Two distinct misses need two admission slots at once: over the
        # bound of 1, deterministically -- no timing races.
        with pytest.raises(ServiceError) as excinfo:
            client.plan([
                {"platform": "x60", "workload": "memset",
                 "spec": dict(_COUNTING)},
                {"platform": "u74", "workload": "memset",
                 "spec": dict(_COUNTING)},
            ])
        error = excinfo.value
        assert (error.status, error.kind) == (429, "Overloaded")
        # No request has completed yet, so the hint is the no-history
        # fallback (a tenth of the request timeout), never below 1s.
        assert error.retry_after is not None and error.retry_after >= 1
        header = error.headers.get("Retry-After")
        assert header is not None
        # The header and the structured error body carry the same value.
        assert float(header) == error.payload["error"]["retry_after"] \
            == error.retry_after
        assert _value(client.metrics(), "repro_service_rejected_total") == 1
        # A single request still fits under the bound and fills the cache.
        single = client.run({"platform": "x60", "workload": "memset",
                             "spec": dict(_COUNTING)}, with_meta=True)
        assert single.cache == "miss"


def test_request_timeout_is_a_504():
    config = ServiceConfig(port=0, workers=0, request_timeout=0.001,
                           warm_kernels=False)
    with BackgroundServer(config) as background:
        client = ServiceClient(background.address)
        with pytest.raises(ServiceError) as excinfo:
            client.run({"platform": "x60", "workload": "memset",
                        "spec": dict(_COUNTING)})
        assert (excinfo.value.status, excinfo.value.kind) == (504, "Timeout")
        assert _value(client.metrics(), "repro_service_timeouts_total") == 1


def test_worker_crash_fails_in_flight_and_respawns_the_pool():
    registry.register("crash-on-run", _CrashOnRun)
    try:
        config = ServiceConfig(port=0, workers=1, warm_kernels=False)
        with BackgroundServer(config) as background:
            client = ServiceClient(background.address)
            with pytest.raises(ServiceError) as excinfo:
                # Bypass so the failed request cannot be cache-poisoned.
                client.run({"platform": "x60", "workload": "crash-on-run",
                            "spec": dict(_COUNTING)}, bypass_cache=True)
            assert (excinfo.value.status, excinfo.value.kind) == (
                500, "WorkerCrashed")
            assert client.healthz()["worker_restarts"] == 1
            # The respawned pool serves the next request normally.
            reply = client.run({"platform": "x60", "workload": "memset",
                                "params": {"n": 64},
                                "spec": dict(_COUNTING)}, with_meta=True)
            assert reply.cache in ("miss", "hit")
            assert _states(client.metrics(),
                           "repro_service_pool")["restarts"] == 1
    finally:
        registry._factories.pop("crash-on-run", None)
        registry._descriptions.pop("crash-on-run", None)


# -- CLI --server ------------------------------------------------------------------------


def _cli(capsys, argv):
    from repro.toolchain.cli import main
    code = main(list(argv))
    return code, capsys.readouterr().out


def _strip_timings_text(out: str) -> str:
    payload = strip_timings(json.loads(out))
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["stat", "--workload", "micro-calltree", "-p", "x60", "--json"],
    ["stat", "--workload", "micro-calltree", "-p", "T-Head C910", "--json"],
    ["record", "--workload", "micro-calltree", "-p", "x60",
     "--period", "2000", "--json"],
    ["record", "--workload", "micro-calltree", "-p", "T-Head C910",
     "--period", "2000", "--json"],
], ids=["stat-x60", "stat-c910", "record-x60", "record-c910"])
def test_cli_server_json_is_byte_identical_modulo_timings(
        server, capsys, argv):
    code_local, local = _cli(capsys, argv)
    code_remote, remote = _cli(capsys, argv + ["--server", server.address])
    assert (code_local, code_remote) == (0, 0)
    assert remote == _strip_timings_text(local)
    # Cache-served output is identical to the fill's, byte for byte.
    _code, cached = _cli(capsys, argv + ["--server", server.address])
    assert cached == remote


@pytest.mark.parametrize("argv", [
    ["stat", "--workload", "micro-calltree", "-p", "x60"],
    ["record", "--workload", "micro-calltree", "-p", "x60",
     "--period", "2000"],
    ["analyze", "--workload", "stream-triad", "-p", "x60"],
], ids=["stat", "record", "analyze"])
def test_cli_server_text_output_is_byte_identical(server, capsys, argv):
    code_local, local = _cli(capsys, argv)
    code_remote, remote = _cli(capsys, argv + ["--server", server.address])
    assert (code_local, code_remote) == (0, 0)
    assert remote == local


def test_cli_server_compare_matches_local(server, capsys):
    argv = ["compare", "--platforms", "SpacemiT X60", "T-Head C910",
            "--workload", "micro-calltree", "--period", "2000"]
    code_local, local = _cli(capsys, argv)
    code_remote, remote = _cli(capsys, argv + ["--server", server.address])
    assert (code_local, code_remote) == (0, 0)
    assert remote == local
    code_local, local = _cli(capsys, argv + ["--json"])
    code_remote, remote = _cli(capsys, argv + ["--json", "--server",
                                               server.address])
    assert (code_local, code_remote) == (0, 0)
    assert remote == _strip_timings_text(local)


def test_cli_server_analyze_json_matches_local(server, capsys):
    argv = ["analyze", "--workload", "stream-triad", "-p", "x60", "--json"]
    code_local, local = _cli(capsys, argv)
    code_remote, remote = _cli(capsys, argv + ["--server", server.address])
    assert (code_local, code_remote) == (0, 0)
    assert remote == local            # analyze has no timings to strip


def test_cli_server_unreachable_daemon_fails_cleanly(capsys):
    from repro.toolchain.cli import main
    code = main(["stat", "--workload", "memset",
                 "--server", "http://127.0.0.1:9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "stat failed:" in captured.err


# -- metrics golden ----------------------------------------------------------------------


def _normalized_metrics(metrics: dict) -> dict:
    """The deterministic projection of /metrics: latency histograms reduce
    to their counts (durations are host wall-clock), and the ``engine`` key
    is dropped entirely -- the engine registry is process-global, so its
    series depend on whatever else ran in this pytest process (and its
    phase histograms carry wall-clock sums)."""
    normalized = dict(metrics)
    normalized.pop("engine", None)
    latency = metrics["repro_service_request_seconds"]
    normalized["repro_service_request_seconds"] = dict(latency, series={
        endpoint: {"count": histogram["count"]}
        for endpoint, histogram in latency["series"].items()})
    return normalized


def _service_families(registry_dict: dict) -> set:
    return {name for name in registry_dict
            if name.startswith("repro_service_")
            or name == "repro_result_cache"}


def test_metrics_golden(request):
    """A fixed request sequence produces a fixed /metrics document."""
    config = ServiceConfig(port=0, workers=0, queue_limit=2, cache_entries=8,
                           warm_kernels=False)
    with BackgroundServer(config) as background:
        client = ServiceClient(background.address)
        run = {"platform": "x60", "workload": "memset", "params": {"n": 64},
               "spec": dict(_COUNTING)}
        client.run(run)                                  # miss
        client.run(run)                                  # hit
        client.run(run, bypass_cache=True)               # bypass
        with pytest.raises(ServiceError):
            client.run({"platform": "x60", "workload": "nope"})   # 400
        with pytest.raises(ServiceError):
            client.plan([                                # deterministic 429
                {"platform": "x60", "workload": "memset",
                 "spec": dict(_COUNTING, seed=1)},
                {"platform": "u74", "workload": "memset",
                 "spec": dict(_COUNTING, seed=1)},
                {"platform": "c910", "workload": "memset",
                 "spec": dict(_COUNTING, seed=1)},
            ])
        client.healthz()
        metrics = client.metrics()
        # The daemon's own series are top level; the process registry's
        # engine tallies (run counts from the executed requests) ride
        # under "engine" and hold no service family.
        engine = metrics["engine"]
        assert "repro_runs_total" in engine
        assert not _service_families(engine)
        assert "repro_service_executions_total" in metrics
        assert "repro_result_cache" in metrics
        normalized = json.dumps(_normalized_metrics(metrics),
                                indent=2) + "\n"
        # The Prometheus rendering exposes the same counters.
        prometheus = client.metrics(format="prometheus")
        # 4 = miss + hit + bypass + the rejected bad request.
        assert ('repro_service_requests_total{endpoint="POST /run"} 4'
                in prometheus)
        assert 'repro_result_cache{state="hits"} 1' in prometheus
        assert "repro_service_rejected_total 1" in prometheus
        # ... and the engine registry is appended after the daemon's.
        assert "# TYPE repro_runs_total counter" in prometheus
        assert "# TYPE repro_service_queue gauge" in prometheus

    path = os.path.join(GOLDEN_DIR, "service_metrics.json")
    if request.config.getoption("--update-goldens"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(normalized)
        return
    assert os.path.exists(path), (
        "golden service_metrics.json missing; generate it with "
        "--update-goldens")
    with open(path, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert normalized == golden, (
        "/metrics diverged from tests/goldens/service_metrics.json; if the "
        "change is intentional, rerun with --update-goldens and review")


def test_metrics_json_and_prometheus_render_the_same_families(server, client):
    client.run({"platform": "x60", "workload": "memset",
                "params": {"n": 32}, "spec": dict(_COUNTING)})
    metrics = client.metrics()
    prometheus = client.metrics(format="prometheus")
    typed = re.findall(r"^# TYPE (\S+) ", prometheus, flags=re.MULTILINE)
    assert len(typed) == len(set(typed)), "a family is rendered twice"
    json_families = (set(metrics) - {"engine"}) | set(metrics["engine"])
    assert set(typed) == json_families


def test_each_daemon_counts_only_its_own_requests():
    """Two daemons in one process: the second one's /metrics reports its
    own requests only, and no family is served under two names."""
    for _daemon in range(2):
        config = ServiceConfig(port=0, workers=0, queue_limit=1,
                               warm_kernels=False)
        with BackgroundServer(config) as background:
            client = ServiceClient(background.address)
            client.run({"platform": "x60", "workload": "memset",
                        "params": {"n": 48}, "spec": dict(_COUNTING)})
            with pytest.raises(ServiceError) as excinfo:
                client.plan([                        # deterministic 429
                    {"platform": "x60", "workload": "memset",
                     "spec": dict(_COUNTING, seed=3)},
                    {"platform": "u74", "workload": "memset",
                     "spec": dict(_COUNTING, seed=3)},
                ])
            assert excinfo.value.status == 429
            metrics = client.metrics()
    assert _value(metrics, "repro_service_rejected_total") == 1
    assert _value(metrics, "repro_service_executions_total", RUN) == 1
    assert not (set(metrics) - {"engine"}) & set(metrics["engine"])
    assert not _service_families(metrics["engine"])


class _BlockOnRun:
    """``memset`` whose run waits for :attr:`release` before executing."""

    name = "block-on-run"
    description = "waits on an event mid-run (coalescing tests)"
    release = threading.Event()

    def __init__(self):
        self._inner = registry.create("memset")

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def executable(self, *args):
        assert self.release.wait(120), "the test never released the run"
        return self._inner.executable(*args)


def test_identical_in_flight_requests_are_coalesced():
    """A request identical to one still executing awaits it instead of
    executing again, and is served the same bytes."""
    registry.register("block-on-run", _BlockOnRun)
    _BlockOnRun.release.clear()
    try:
        config = ServiceConfig(port=0, workers=0, warm_kernels=False)
        with BackgroundServer(config) as background:
            client = ServiceClient(background.address)
            request = {"platform": "x60", "workload": "block-on-run",
                       "spec": dict(_COUNTING)}
            replies = {}

            def send(name):
                replies[name] = _post_raw(background.address, "/run",
                                          request)

            first = threading.Thread(target=send, args=("a",))
            first.start()
            deadline = time.monotonic() + 60
            while not background.service._pending:
                assert time.monotonic() < deadline, "A never went in flight"
                time.sleep(0.01)
            second = threading.Thread(target=send, args=("b",))
            second.start()
            while _value(client.metrics(),
                         "repro_service_coalesced_total") != 1:
                assert time.monotonic() < deadline, "B was never coalesced"
                time.sleep(0.01)
            _BlockOnRun.release.set()
            first.join(120)
            second.join(120)
            (status_a, body_a, headers_a) = replies["a"]
            (status_b, body_b, headers_b) = replies["b"]
            assert (status_a, status_b) == (200, 200)
            assert (headers_a["X-Repro-Cache"],
                    headers_b["X-Repro-Cache"]) == ("miss", "coalesced")
            assert body_a == body_b
            assert _value(client.metrics(), "repro_service_executions_total",
                          RUN) == 1
    finally:
        _BlockOnRun.release.set()
        registry._factories.pop("block-on-run", None)
        registry._descriptions.pop("block-on-run", None)


# -- capabilities ------------------------------------------------------------------------


def test_capabilities_lists_platforms_workloads_endpoints(client):
    capabilities = client.capabilities()
    names = {platform["name"] for platform in capabilities["platforms"]}
    assert {"SpacemiT X60", "SiFive U74", "T-Head C910"} <= names
    assert "memset" in capabilities["workloads"]
    assert "/run" in capabilities["endpoints"]
    assert capabilities["capabilities"], "Table-1 rows missing"


# -- load-derived Retry-After -------------------------------------------------------------


def _bare_service(**overrides):
    """A ReproService without pool warmup -- for unit-testing hint math."""
    from repro.service.daemon import ReproService
    defaults = dict(port=0, workers=0, warm_platforms=(),
                    warm_kernels=False)
    defaults.update(overrides)
    return ReproService(ServiceConfig(**defaults))


def test_retry_after_falls_back_without_history():
    service = _bare_service(request_timeout=300.0)
    assert service._retry_after_hint() == 30.0


def test_retry_after_scales_with_queue_depth_and_service_rate():
    service = _bare_service()
    service._service_seconds.extend([0.2, 0.4])       # mean 0.3s
    # Empty queue, inline concurrency 1: one wave of the mean service time.
    assert service._retry_after_hint(slots_needed=1) == pytest.approx(0.3)
    # A backlog drains in ceil(backlog / concurrency) waves.
    service._admitted = 5
    assert service._retry_after_hint(slots_needed=1) == pytest.approx(1.8)
    assert service._retry_after_hint(slots_needed=3) == pytest.approx(2.4)


def test_retry_after_is_clamped():
    service = _bare_service(request_timeout=2.0)
    service._service_seconds.append(0.001)
    assert service._retry_after_hint() == 0.1          # sub-0.1 floors
    service._service_seconds.clear()
    service._service_seconds.append(500.0)
    service._admitted = 30
    assert service._retry_after_hint() == 2.0          # timeout ceiling


def test_loaded_daemon_hints_fractional_retry_after():
    """End-to-end: after a served request the daemon has an observed rate,
    so a flood gets a load-derived (typically sub-second) fractional hint,
    identical in header and body."""
    config = ServiceConfig(port=0, workers=0, queue_limit=1,
                           warm_kernels=False)
    with BackgroundServer(config) as background:
        client = ServiceClient(background.address)
        client.run({"platform": "x60", "workload": "memset",
                    "spec": dict(_COUNTING)})           # seeds the rate
        with pytest.raises(ServiceError) as excinfo:
            client.plan([
                {"platform": "x60", "workload": "memset",
                 "spec": dict(_COUNTING, seed=7)},
                {"platform": "u74", "workload": "memset",
                 "spec": dict(_COUNTING, seed=7)},
            ])
        error = excinfo.value
        assert (error.status, error.kind) == (429, "Overloaded")
        assert error.retry_after is not None
        assert 0.1 <= error.retry_after <= config.request_timeout
        assert float(error.headers["Retry-After"]) \
            == error.payload["error"]["retry_after"] == error.retry_after


def test_client_parses_fractional_retry_after_from_either_source():
    error = ServiceError(429, {"error": {"retry_after": 0.25}})
    assert error.retry_after == 0.25
    error = ServiceError(429, {"error": {}}, {"retry-after": "0.75"})
    assert error.retry_after == 0.75
    error = ServiceError(429, {"error": {"retry_after": 0.5}},
                         {"Retry-After": "9"})
    assert error.retry_after == 0.5, "structured body wins over header"
    assert ServiceError(429, {"error": {}}).retry_after is None
    assert ServiceError(429, {"error": {"retry_after": "nan-ish"}},
                        ).retry_after is None or True  # no crash on junk


# -- persistent result cache across restarts ----------------------------------------------


def test_daemon_restart_serves_results_from_disk(tmp_path):
    """A ``--cache-dir`` daemon's results survive the process: a fresh
    daemon on the same store serves the first request as a byte-identical
    hit, without executing anything."""
    cache_dir = str(tmp_path / "daemon-cache")
    request = {"platform": "x60", "workload": "memset",
               "spec": dict(_COUNTING)}

    config = ServiceConfig(port=0, workers=0, warm_kernels=False,
                           cache_dir=cache_dir)
    with BackgroundServer(config) as background:
        first = ServiceClient(background.address).run(request,
                                                      with_meta=True)
        assert first.cache == "miss"
        cold = json.dumps(first.payload, sort_keys=True)

    with BackgroundServer(config) as background:
        client = ServiceClient(background.address)
        reply = client.run(request, with_meta=True)
        assert reply.cache == "hit", "restart must start hot"
        assert json.dumps(reply.payload, sort_keys=True) == cold
        stats = _states(client.metrics(), "repro_result_cache")
        assert stats["disk_hits"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 0


def test_memory_only_daemon_metrics_have_no_disk_keys(client):
    stats = _states(client.metrics(), "repro_result_cache")
    assert "disk_hits" not in stats and "disk_misses" not in stats
