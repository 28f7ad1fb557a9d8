"""Warm-start benchmark: disk-cache-served compiles vs cold compiles.

The persistent artifact store exists so that daemon restarts, ``run_many``
fleets and repeated CLI invocations skip compilation entirely.  This
benchmark measures that claim directly over every registry kernel:

* **cold** -- ``compile_source_cached`` with the disk cache disabled and
  the in-process memo cleared: the full frontend + optimization pipeline
  per kernel;
* **warm** -- the same call against a filled disk store with the memo
  cleared: envelope read + integrity check + unpickle.

The per-kernel speedup must clear ``REPRO_MIN_WARM_SPEEDUP`` (default 3x)
in aggregate, and the warm path must actually be disk-served (asserted via
``cache_stats``).  A two-pass sweep trajectory -- first run fills, second
run serves every cell -- lands in ``benchmarks/output/BENCH_sweep.json``.
"""

import json
import os
import time

from repro.api.sweep import build_plan, sweep
from repro.cache.store import DiskCache
from repro.compiler import cache as compile_cache
from repro.platforms import platform_by_name
from repro.workloads import registry

PLATFORM = "SpacemiT X60"

#: Required aggregate cold-compile / warm-load time ratio.
MIN_WARM_SPEEDUP = float(os.environ.get("REPRO_MIN_WARM_SPEEDUP", "3"))

#: Compile repetitions per kernel (best-of, to shed scheduler noise).
TRIES = 3


def _kernel_plan():
    plan = []
    for name in sorted(registry):
        workload = registry.create(name)
        source = getattr(workload, "source", None)
        filename = getattr(workload, "filename", None)
        if isinstance(source, str) and isinstance(filename, str):
            plan.append((name, source, filename))
    return plan


def _best_compile_seconds(source, filename, descriptor):
    best = None
    for _ in range(TRIES):
        compile_cache.clear_memory_cache()
        start = time.perf_counter()
        compile_cache.compile_source_cached(source, filename, descriptor,
                                            True)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_disk_cache_warm_start_speedup(output_dir, tmp_path, monkeypatch):
    descriptor = platform_by_name(PLATFORM)
    kernels = _kernel_plan()
    assert kernels, "no kernel workloads registered"

    # Cold: no disk store anywhere in the path.
    monkeypatch.setenv("REPRO_DISK_CACHE", "off")
    cold = {name: _best_compile_seconds(source, filename, descriptor)
            for name, source, filename in kernels}

    # Fill a fresh store, then time disk-served loads with a cold memo.
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm-store"))
    compile_cache.clear_memory_cache()
    for _name, source, filename in kernels:
        compile_cache.compile_source_cached(source, filename, descriptor,
                                            True)
    compile_cache.reset_stats()
    warm = {name: _best_compile_seconds(source, filename, descriptor)
            for name, source, filename in kernels}
    stats = compile_cache.cache_stats()
    assert stats["disk_hits"] == stats["misses"] == len(kernels) * TRIES, (
        "warm timings must be disk-served", stats)

    cold_total = sum(cold.values())
    warm_total = sum(warm.values())
    speedup = cold_total / warm_total

    # The sweep trajectory artifact: pass one fills, pass two serves.
    plan = build_plan([PLATFORM], [name for name, _s, _f in kernels])
    sweep(plan, workers=0, store=DiskCache(str(tmp_path / "sweep-store")))
    start = time.perf_counter()
    second = sweep(plan, workers=0,
                   store=DiskCache(str(tmp_path / "sweep-store")))
    sweep_elapsed = time.perf_counter() - start
    assert second.all_from_cache, second.counts()
    doc = second.write_trajectory(
        os.path.join(output_dir, "BENCH_sweep.json"),
        elapsed_seconds=sweep_elapsed)
    assert doc["totals"]["executed"] == 0

    payload = {
        "benchmark": f"compile_source_cached on {PLATFORM}: cold pipeline "
                     "vs disk-cache-served load, per registry kernel",
        "kernels": {name: {"cold_seconds": round(cold[name], 6),
                           "warm_seconds": round(warm[name], 6),
                           "speedup": round(cold[name] / warm[name], 1)}
                    for name, _s, _f in kernels},
        "cold_total_seconds": round(cold_total, 6),
        "warm_total_seconds": round(warm_total, 6),
        "tries": TRIES,
        "speedup": round(speedup, 1),
    }
    path = os.path.join(output_dir, "BENCH_warm_start.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwarm start: cold {cold_total * 1000:.1f}ms; warm "
          f"{warm_total * 1000:.1f}ms; speedup {speedup:.1f}x "
          f"(floor {MIN_WARM_SPEEDUP}x)")

    assert speedup > MIN_WARM_SPEEDUP, (
        f"disk-cache warm start only {speedup:.2f}x faster than cold "
        f"compiles (required: {MIN_WARM_SPEEDUP}x)"
    )
