"""The sweep engine: cartesian plans, incremental re-runs, trajectories.

The acceptance bar from the issue: a second identical ``repro sweep``
invocation executes nothing (every cell is a disk-cache hit), hit payloads
are byte-identical to executed ones, and a corrupted result entry silently
re-executes.  The engine shares the service result namespace, so a
sweep-filled store serves a daemon's :class:`ResultCache` and vice versa.
"""

import json

import pytest

from repro.api.executor import RunRequest, canonical_request
from repro.api.spec import ProfileSpec
from repro.api.sweep import (
    TRAJECTORY_SCHEMA,
    build_plan,
    sweep,
)
from repro.cache.keys import RESULT_KIND, cache_key
from repro.cache.store import DiskCache
from repro.toolchain.cli import main


def fresh_store(tmp_path, name="sweep-store"):
    return DiskCache(str(tmp_path / name))


# -- plan construction --------------------------------------------------------------------


def test_build_plan_is_the_cartesian_product():
    plan = build_plan(["x60", "u74"], ["memset", "dot-product"],
                      cpus=(1, 2))
    assert len(plan) == 8
    assert [(request.platform, request.workload, request.spec.cpus)
            for request in plan] == [
        ("x60", "memset", 1), ("x60", "memset", 2),
        ("x60", "dot-product", 1), ("x60", "dot-product", 2),
        ("u74", "memset", 1), ("u74", "memset", 2),
        ("u74", "dot-product", 1), ("u74", "dot-product", 2),
    ]


def test_build_plan_axes_expand_spec_knobs_in_sorted_order():
    plan = build_plan(["x60"], ["memset"],
                      axes={"enable_vectorizer": [True, False],
                            "block_delta": [True, False]})
    assert len(plan) == 4
    # Axis names apply sorted (block_delta before enable_vectorizer), each
    # in its given value order.
    assert [(request.spec.block_delta, request.spec.enable_vectorizer)
            for request in plan] == [
        (True, True), (True, False), (False, True), (False, False)]


def test_build_plan_rejects_unknown_axis():
    with pytest.raises(TypeError):
        build_plan(["x60"], ["memset"], axes={"no_such_knob": [1]})


def test_canonical_cell_resolves_aliases_to_one_key():
    short = canonical_request(RunRequest(platform="x60", workload="memset"))
    full = canonical_request(RunRequest(platform="SpacemiT X60",
                                        workload="memset"))
    assert short == full
    assert cache_key("run", short) == cache_key("run", full)


def test_canonical_cell_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        canonical_request(RunRequest(platform="x60", workload="nope"))


# -- incremental execution ----------------------------------------------------------------


def test_second_sweep_serves_every_cell_from_cache(tmp_path):
    plan = build_plan(["x60", "u74"], ["memset"], cpus=(1,))
    first = sweep(plan, workers=0, store=fresh_store(tmp_path))
    assert first.counts() == {"hit": 0, "executed": 2, "deduplicated": 0,
                              "resumed": 0, "error": 0}
    assert not first.all_from_cache

    second = sweep(plan, workers=0, store=fresh_store(tmp_path))
    assert second.counts() == {"hit": 2, "executed": 0, "deduplicated": 0,
                               "resumed": 0, "error": 0}
    assert second.all_from_cache
    for cold, warm in zip(first.outcomes, second.outcomes):
        assert cold.cell.key == warm.cell.key
        assert cold.body() == warm.body(), "hit must be byte-identical"


def test_duplicate_cells_execute_once(tmp_path):
    request = build_plan(["x60"], ["memset"])[0]
    alias = RunRequest(platform="SpacemiT X60", workload="memset",
                       spec=request.spec)
    result = sweep([request, alias, request], workers=0,
                   store=fresh_store(tmp_path))
    assert [outcome.status for outcome in result.outcomes] == [
        "executed", "deduplicated", "deduplicated"]
    bodies = {outcome.body() for outcome in result.outcomes}
    assert len(bodies) == 1


def test_sweep_without_store_executes_everything():
    plan = build_plan(["x60"], ["memset"])
    first = sweep(plan, workers=0, store=None)
    again = sweep(plan, workers=0, store=None)
    assert first.counts()["executed"] == again.counts()["executed"] == 1
    assert first.cache_stats is None
    assert first.outcomes[0].body() == again.outcomes[0].body()


def test_bypass_cache_reexecutes_but_refills(tmp_path):
    store = fresh_store(tmp_path)
    plan = build_plan(["x60"], ["memset"])
    sweep(plan, workers=0, store=store)
    bypassed = sweep(plan, workers=0, store=store, bypass_cache=True)
    assert bypassed.counts()["executed"] == 1
    assert bypassed.bypassed
    served = sweep(plan, workers=0, store=fresh_store(tmp_path))
    assert served.all_from_cache


def test_corrupted_result_entry_silently_reexecutes(tmp_path):
    """The acceptance bar: corruption costs a re-run, never an error, and
    the re-executed payload is byte-identical."""
    store = fresh_store(tmp_path)
    plan = build_plan(["x60"], ["memset"])
    first = sweep(plan, workers=0, store=store)
    key = first.outcomes[0].cell.key
    path = store.entry_path(RESULT_KIND, key)
    with open(path, "r+b") as handle:
        handle.seek(10)
        handle.write(b"\x00\x00\x00\x00")

    store = fresh_store(tmp_path)
    second = sweep(plan, workers=0, store=store)
    assert second.counts() == {"hit": 0, "executed": 1, "deduplicated": 0,
                               "resumed": 0, "error": 0}
    assert second.outcomes[0].body() == first.outcomes[0].body()
    assert store.integrity_failures == 1
    # The re-execution re-filled the entry.
    third = sweep(plan, workers=0, store=fresh_store(tmp_path))
    assert third.all_from_cache


def test_sweep_results_come_back_in_plan_order(tmp_path):
    """Scheduling reorders execution (platform/workload grouping), but the
    outcomes must follow the plan."""
    plan = build_plan(["u74", "x60"], ["memset", "dot-product"])
    result = sweep(plan, workers=0, store=fresh_store(tmp_path))
    assert [(outcome.cell.platform, outcome.cell.workload)
            for outcome in result.outcomes] == [
        ("SiFive U74", "memset"), ("SiFive U74", "dot-product"),
        ("SpacemiT X60", "memset"), ("SpacemiT X60", "dot-product")]


# -- service interop ----------------------------------------------------------------------


def test_sweep_filled_store_serves_the_service_result_cache(tmp_path):
    """One result namespace: the daemon's ResultCache hits on sweep-filled
    entries without re-executing."""
    from repro.service.cache import ResultCache
    store = fresh_store(tmp_path)
    plan = build_plan(["x60"], ["memset"])
    result = sweep(plan, workers=0, store=store)
    outcome = result.outcomes[0]

    cache = ResultCache(store=DiskCache(store.root))
    body = cache.get(outcome.cell.key)
    assert body == outcome.body()
    assert cache.stats()["disk_hits"] == 1


def test_service_filled_cache_serves_a_sweep(tmp_path):
    from repro.service.cache import ResultCache
    store = fresh_store(tmp_path)
    plan = build_plan(["x60"], ["memset"])
    baseline = sweep(plan, workers=0, store=None)
    cache = ResultCache(store=store)
    cache.put(baseline.outcomes[0].cell.key, baseline.outcomes[0].body())

    served = sweep(plan, workers=0, store=DiskCache(store.root))
    assert served.all_from_cache
    assert served.outcomes[0].body() == baseline.outcomes[0].body()


# -- trajectory export --------------------------------------------------------------------


def test_trajectory_document_schema(tmp_path):
    plan = build_plan(["x60"], ["memset", "dot-product"])
    result = sweep(plan, workers=0, store=fresh_store(tmp_path))
    out = tmp_path / "BENCH_sweep.json"
    doc = result.write_trajectory(str(out), elapsed_seconds=1.25)
    assert json.loads(out.read_text()) == doc
    assert doc["schema"] == TRAJECTORY_SCHEMA
    assert doc["totals"] == {"cells": 2, "hits": 0, "executed": 2,
                             "deduplicated": 0, "resumed": 0, "failed": 0,
                             "with_errors": 0}
    assert doc["elapsed_seconds"] == 1.25
    assert doc["cache"]["writes"] >= 2
    for cell in doc["cells"]:
        assert set(cell) >= {"platform", "workload", "cpus", "key", "status"}
        assert cell["status"] == "executed"


# -- CLI ----------------------------------------------------------------------------------


def test_cli_sweep_twice_skips_every_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    out = str(tmp_path / "BENCH_sweep.json")
    argv = ["sweep", "--platforms", "x60", "--workloads", "memset",
            "dot-product", "--out", out]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "executed: 2" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "hits: 2" in second
    assert "executed: 0" in second
    doc = json.loads(open(out).read())
    assert doc["totals"]["executed"] == 0


def test_cli_sweep_axis_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "axis-cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    out = str(tmp_path / "BENCH_sweep.json")
    assert main(["sweep", "--platforms", "x60", "--workloads", "memset",
                 "--axis", "enable_vectorizer=true,false",
                 "--out", out, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["totals"]["cells"] == 2
    assert doc["totals"]["executed"] == 2


def test_cli_cache_stats_verify_clear(tmp_path, monkeypatch, capsys):
    from repro.compiler.cache import clear_memory_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-cli"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    clear_memory_cache()  # force a cold compile so module entries hit disk
    assert main(["sweep", "--platforms", "x60", "--workloads", "memset",
                 "--out", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] >= 2
    assert set(stats["kinds"]) >= {"module", "result"}

    assert main(["cache", "verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["corrupt"] == 0
    assert report["checked"] == stats["entries"]

    assert main(["cache", "clear", "--json"]) == 0
    cleared = json.loads(capsys.readouterr().out)
    assert cleared["removed"] == stats["entries"]
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cli_cache_verify_flags_corruption(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "verify-cli"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    store = DiskCache(str(tmp_path / "verify-cli"))
    store.put("module", cache_key("module", {"n": 1}), b"payload")
    path = store.entry_path("module", cache_key("module", {"n": 1}))
    with open(path, "r+b") as handle:
        handle.write(b"BAD!")
    assert main(["cache", "verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["corrupt"] == 1 and report["removed"] == 1


def test_cli_cache_disabled_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_DISK_CACHE", "off")
    assert main(["cache", "stats"]) == 1
    assert "disabled" in capsys.readouterr().err
