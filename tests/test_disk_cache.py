"""The persistent content-addressed store: integrity, fallback, identity.

Four layers of guarantees:

* **Envelope integrity** -- property tests corrupt stored entries (random
  truncations, random bit flips) and assert the store *always* detects the
  damage, counts it, removes the file and reports a miss; a concurrent
  writer fleet leaves a readable, verify-clean store.
* **Silent fallback** -- a corrupted module entry costs a recompile, never
  an error and never different output.
* **Bit identity** -- a disk-served compile produces byte-identical
  ``deterministic_dict()`` output to a cold compile, across every
  registered workload and platform (full matrix in the slow lane).
* **Key aliasing** -- the module memo keys on the *full* lowering
  configuration: two descriptors agreeing on ``(march, sp_lanes)`` but
  lowering differently (the historical aliasing bug) get distinct modules.
"""

import dataclasses
import json
import multiprocessing
import os
import random

import pytest

from repro.cache.store import DiskCache, cache_enabled, default_store
from repro.cache.keys import cache_key, lowering_config, module_key


def fresh_store(tmp_path, name="store"):
    return DiskCache(str(tmp_path / name))


# -- envelope round-trip ------------------------------------------------------------------


def test_round_trip_and_tallies(tmp_path):
    store = fresh_store(tmp_path)
    key = cache_key("module", {"probe": 1})
    assert store.get("module", key) is None
    assert store.put("module", key, b"payload bytes")
    assert store.get("module", key) == b"payload bytes"
    assert (store.hits, store.misses, store.writes,
            store.integrity_failures) == (1, 1, 1, 0)


def test_entries_layout_is_sharded_and_sorted(tmp_path):
    store = fresh_store(tmp_path)
    keys = [cache_key("module", {"n": n}) for n in range(6)]
    for key in keys:
        store.put("module", key, key.encode())
    listed = list(store.entries())
    assert [key for _kind, key, _path in listed] == sorted(keys)
    for _kind, key, path in listed:
        assert path == store.entry_path("module", key)
        assert os.sep + key[:2] + os.sep in path


def test_kind_namespacing_never_collides(tmp_path):
    store = fresh_store(tmp_path)
    request = {"same": "request"}
    module_digest = cache_key("module", request)
    result_digest = cache_key("result", request)
    assert module_digest != result_digest
    # Even an identical digest string filed under two kinds stays distinct.
    store.put("module", module_digest, b"module bytes")
    store.put("result", module_digest, b"result bytes")
    assert store.get("module", module_digest) == b"module bytes"
    assert store.get("result", module_digest) == b"result bytes"


def test_reading_entry_under_wrong_kind_is_integrity_failure(tmp_path):
    store = fresh_store(tmp_path)
    key = cache_key("module", {"n": 1})
    store.put("module", key, b"payload")
    wrong = store.entry_path("result", key)
    os.makedirs(os.path.dirname(wrong), exist_ok=True)
    os.replace(store.entry_path("module", key), wrong)
    assert store.get("result", key) is None
    assert store.integrity_failures == 1
    assert not os.path.exists(wrong), "corrupt entry must be removed"


# -- corruption property tests ------------------------------------------------------------


def _stored_blob(store, kind, key):
    with open(store.entry_path(kind, key), "rb") as handle:
        return handle.read()


def _write_blob(store, kind, key, blob):
    with open(store.entry_path(kind, key), "wb") as handle:
        handle.write(blob)


@pytest.mark.parametrize("seed", range(16))
def test_random_truncation_is_always_detected(tmp_path, seed):
    """Property: any truncation (including to zero bytes) is a counted
    integrity failure, the file is removed, and a re-put recovers."""
    rng = random.Random(seed)
    store = fresh_store(tmp_path)
    key = cache_key("module", {"seed": seed})
    payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 4096)))
    store.put("module", key, payload)
    blob = _stored_blob(store, "module", key)
    _write_blob(store, "module", key, blob[:rng.randrange(len(blob))])

    assert store.get("module", key) is None
    assert store.integrity_failures == 1
    assert not os.path.exists(store.entry_path("module", key))
    assert store.put("module", key, payload)
    assert store.get("module", key) == payload


@pytest.mark.parametrize("seed", range(16))
def test_random_bit_flip_is_always_detected(tmp_path, seed):
    """Property: flipping any single bit anywhere in the envelope -- magic,
    header, payload -- is detected and treated as a miss."""
    rng = random.Random(1000 + seed)
    store = fresh_store(tmp_path)
    key = cache_key("module", {"seed": seed})
    payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 4096)))
    store.put("module", key, payload)
    blob = bytearray(_stored_blob(store, "module", key))
    position = rng.randrange(len(blob))
    blob[position] ^= 1 << rng.randrange(8)
    _write_blob(store, "module", key, bytes(blob))

    assert store.get("module", key) is None
    assert store.integrity_failures == 1
    assert not os.path.exists(store.entry_path("module", key))


def test_verify_reports_and_removes_corruption(tmp_path):
    store = fresh_store(tmp_path)
    keys = [cache_key("module", {"n": n}) for n in range(4)]
    for key in keys:
        store.put("module", key, key.encode())
    victim = store.entry_path("module", keys[0])
    with open(victim, "r+b") as handle:
        handle.seek(0)
        handle.write(b"XXXX")
    report = store.verify(remove=False)
    assert report == {"checked": 4, "ok": 3, "corrupt": 1, "removed": 0}
    assert os.path.exists(victim)
    report = store.verify(remove=True)
    assert report == {"checked": 4, "ok": 3, "corrupt": 1, "removed": 1}
    assert not os.path.exists(victim)
    assert store.verify() == {"checked": 3, "ok": 3, "corrupt": 0,
                              "removed": 0}


def test_clear_removes_everything(tmp_path):
    store = fresh_store(tmp_path)
    for n in range(3):
        store.put("module", cache_key("module", {"n": n}), b"x")
    assert store.clear() == 3
    assert list(store.entries()) == []
    assert store.stats(scan=True)["entries"] == 0


# -- concurrent writers -------------------------------------------------------------------


def _writer_process(root: str, worker: int) -> None:
    store = DiskCache(root)
    for n in range(25):
        # Half the keys are shared across workers (same bytes -- content
        # addressing), half are private, so replace-over-existing and
        # first-write races both happen.
        shared = n % 2 == 0
        request = {"n": n} if shared else {"n": n, "worker": worker}
        key = cache_key("module", request)
        payload = json.dumps(request, sort_keys=True).encode() * 50
        assert store.put("module", key, payload)
        assert store.get("module", key) == payload


def test_concurrent_writers_leave_consistent_store(tmp_path):
    """Property: racing writers (atomic tmp+rename per entry) never leave a
    torn entry -- every key reads back, verify() is clean."""
    root = str(tmp_path / "shared")
    context = multiprocessing.get_context("fork")
    workers = [context.Process(target=_writer_process, args=(root, worker))
               for worker in range(4)]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=60)
        assert process.exitcode == 0
    store = DiskCache(root)
    report = store.verify(remove=False)
    assert report["corrupt"] == 0
    # 13 shared keys + 4 workers x 12 private keys.
    assert report["checked"] == report["ok"] == 13 + 4 * 12
    for kind, key, _path in store.entries():
        assert store.get(kind, key) is not None


# -- enable/disable knobs -----------------------------------------------------------------


def test_disk_cache_off_disables_default_store(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
    for value in ("off", "0", "false", "no", "OFF"):
        monkeypatch.setenv("REPRO_DISK_CACHE", value)
        assert not cache_enabled()
        assert default_store() is None
    monkeypatch.setenv("REPRO_DISK_CACHE", "on")
    assert cache_enabled()
    store = default_store()
    assert store is not None
    assert store.root == str(tmp_path / "off")
    assert default_store() is store, "per-root store must be memoized"


# -- compile-cache integration ------------------------------------------------------------


FAST_PLATFORMS = ("SpacemiT X60", "SiFive U74")


def _fresh_disk(monkeypatch, tmp_path, name):
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
    return default_store()


def _run_bytes(platform: str, workload: str) -> bytes:
    from repro.api.executor import RunRequest, execute_request
    from repro.api.spec import ProfileSpec
    from repro.compiler.cache import clear_memory_cache
    clear_memory_cache()
    run = execute_request(RunRequest(platform=platform, workload=workload,
                                     spec=ProfileSpec().counting()))
    return json.dumps(run.deterministic_dict(), sort_keys=True).encode()


def _identity_matrix(monkeypatch, tmp_path, platforms, workloads):
    from repro.compiler import cache as compile_cache
    for platform in platforms:
        for workload in workloads:
            monkeypatch.setenv("REPRO_DISK_CACHE", "off")
            cold = _run_bytes(platform, workload)
            store = _fresh_disk(monkeypatch, tmp_path,
                                f"{platform}-{workload}")
            compile_cache.reset_stats()
            filled = _run_bytes(platform, workload)   # compiles, fills disk
            warm = _run_bytes(platform, workload)     # must load from disk
            assert cold == filled == warm, (platform, workload)
            stats = compile_cache.cache_stats()
            if any(entry_kind == "module"
                   for entry_kind, _key, _path in store.entries()):
                assert stats["disk_hits"] >= 1, (platform, workload, stats)


def test_disk_served_runs_are_bit_identical_fast(monkeypatch, tmp_path):
    """Differential (fast subset): disk-served == cold, byte for byte."""
    _identity_matrix(monkeypatch, tmp_path, FAST_PLATFORMS,
                     ("memset", "dot-product"))


@pytest.mark.slow
def test_disk_served_runs_are_bit_identical_full_matrix(monkeypatch,
                                                        tmp_path):
    """Differential (full): every registered workload x every platform."""
    from repro.platforms import all_platforms
    from repro.workloads import registry
    _identity_matrix(monkeypatch, tmp_path,
                     [descriptor.name for descriptor in all_platforms()],
                     sorted(registry))


def test_corrupt_module_entry_silently_recompiles(monkeypatch, tmp_path):
    """The ISSUE acceptance bar: a corrupted cache entry must cost a
    recompile, never an error and never different bytes."""
    from repro.compiler import cache as compile_cache
    store = _fresh_disk(monkeypatch, tmp_path, "corrupt")
    baseline = _run_bytes("SpacemiT X60", "memset")
    module_entries = [(kind, key, path)
                      for kind, key, path in store.entries()
                      if kind == "module"]
    assert module_entries, "the run must have filled a module entry"
    for _kind, _key, path in module_entries:
        with open(path, "r+b") as handle:
            handle.seek(16)
            handle.write(b"\xff\xff\xff\xff")
    compile_cache.reset_stats()
    recompiled = _run_bytes("SpacemiT X60", "memset")
    assert recompiled == baseline
    stats = compile_cache.cache_stats()
    assert stats["disk_hits"] == 0, "corrupt entry must not disk-hit"
    assert store.integrity_failures >= 1
    # The recompile re-filled the store; the next cold process disk-hits.
    compile_cache.reset_stats()
    assert _run_bytes("SpacemiT X60", "memset") == baseline
    assert compile_cache.cache_stats()["disk_hits"] >= 1


# -- the key-aliasing regression ----------------------------------------------------------


def _aliasing_pair():
    """Two descriptors the OLD memo key (source, filename, march, sp_lanes,
    enable_vectorizer) could not tell apart: same march, same sp_lanes --
    but one has no vector unit and the other a 32-bit-VLEN RVV unit, which
    selects a different target lowering."""
    from repro.platforms.descriptors import VectorCapability, sifive_u74
    plain = sifive_u74()
    vectorish = dataclasses.replace(
        plain, name="u74-rvv32", vector=VectorCapability("RVV 1.0", 32))
    assert plain.march == vectorish.march
    assert plain.vector.sp_lanes() == vectorish.vector.sp_lanes() == 1
    assert plain.vector.supported != vectorish.vector.supported
    return plain, vectorish


def test_lowering_config_separates_aliasing_descriptors():
    plain, vectorish = _aliasing_pair()
    assert lowering_config(plain, True) != lowering_config(vectorish, True)
    source = "long kernel(long n) { return n; }\n"
    assert (module_key(source, "k.c", plain, True)
            != module_key(source, "k.c", vectorish, True))


def test_aliasing_descriptors_get_distinct_modules_and_targets():
    """Regression: the memo must hand the aliasing pair distinct module
    instances, one per (different) target."""
    from repro.compiler.cache import compile_source_cached
    from repro.compiler.targets.registry import target_for_platform
    plain, vectorish = _aliasing_pair()
    assert target_for_platform(plain) is not target_for_platform(vectorish)
    source = "long kernel(long a, long b) { return a * b + a; }\n"
    module_plain = compile_source_cached(source, "alias.c", plain, True)
    module_vector = compile_source_cached(source, "alias.c", vectorish, True)
    assert module_plain is not module_vector
    # And memoization still works per configuration.
    assert compile_source_cached(source, "alias.c", plain, True) \
        is module_plain
    assert compile_source_cached(source, "alias.c", vectorish, True) \
        is module_vector


# -- warmup attribution -------------------------------------------------------------------


def test_pool_warmup_does_not_inflate_cache_stats():
    """Regression: the pool initializer resets the tallies after warmup, so
    cache_stats() attributes only request-driven compiles -- for an ad-hoc
    kernel and for the daemon's whole-registry plan alike."""
    from repro.api.executor import RunRequest, warm_worker, warmup_plan
    from repro.compiler.cache import cache_stats, clear_memory_cache
    from repro.workloads import registry
    clear_memory_cache()
    source = "long kernel(long n) { return n + 1; }\n"
    warm_worker([("SpacemiT X60", source, "warm.c", True)])
    assert cache_stats() == {"hits": 0, "misses": 0, "disk_hits": 0}
    warm_worker(warmup_plan([RunRequest("SpacemiT X60", name)
                             for name in registry]))
    assert cache_stats() == {"hits": 0, "misses": 0, "disk_hits": 0}
