"""Process-wide memoized compilation for execution-engine consumers.

Every thread of a sharded SMP workload -- and every repeated session run --
compiles the identical KernelC source for the identical lowering
configuration, so one compile per ``(source, lowering configuration)``
serves them all.  The cached module is immutable after the optimization
pipeline runs, and execution engines keep all per-run decode state on the
engine (value environments, generated code, pc maps), so sharing one
module instance across harts is safe -- and keeps pc assignment (a
deterministic walk of the module) identical on every hart, which the
fast-dispatch differential suites rely on.

The memo key is the *full* canonical lowering configuration
(:func:`repro.cache.keys.module_key`): march alone is free-form while
target selection keys on ``(arch, vector.supported, vlen_bits)``, so two
descriptors agreeing on march and lanes but differing elsewhere (vector
extension present vs absent at equal lane count, a different VLEN) must
never share a module.

Below the in-process memo sits the disk store
(:mod:`repro.cache.store`): a memo miss consults the content-addressed
store before compiling, and a fresh compile writes the pickled module back, so daemon restarts, ``run_many``
fleets and repeated CLI invocations start hot.  A disk-served module is
byte-identical in every export to a cold compile (the differential suite
enforces it); disk lookups still count as memo *misses* in
:func:`cache_stats` so per-run telemetry deltas stay comparable between
cold and warm processes, with disk activity tallied separately.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Dict

from repro import faults as _faults
from repro.cache import keys as cache_keys
from repro.cache.store import default_store
from repro.platforms.descriptors import PlatformDescriptor
from repro.telemetry import span as _span

if TYPE_CHECKING:
    from repro.compiler.ir.module import Module

#: Memoized modules by their full content address (source + filename +
#: canonical lowering config); see :func:`module_cache_key`.
_MODULE_CACHE: Dict[str, Module] = {}

# Plain process-wide tallies (observability only): the telemetry run
# collector folds before/after deltas into the registry at run boundaries,
# so the memoization fast path stays a dict lookup plus one int add.
_CACHE_HITS = 0
_CACHE_MISSES = 0
_DISK_HITS = 0


def cache_stats() -> Dict[str, int]:
    """Process-wide compile-cache tallies.

    ``hits``/``misses`` are in-process memo outcomes (a disk-served module
    counts as a miss: the memo did not have it); ``disk_hits`` counts how
    many of those misses skipped compilation by loading the module from the
    disk store.
    """
    return {"hits": _CACHE_HITS, "misses": _CACHE_MISSES,
            "disk_hits": _DISK_HITS}


def reset_stats() -> None:
    """Zero the tallies (pool initializers call this after warmup, so
    ``cache_stats()`` -- and everything derived from it, like ``/metrics``
    -- attributes only request-driven compiles)."""
    global _CACHE_HITS, _CACHE_MISSES, _DISK_HITS
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
    _DISK_HITS = 0


def clear_memory_cache() -> None:
    """Drop every memoized module (tests simulating a cold process)."""
    _MODULE_CACHE.clear()


def module_cache_key(source: str, filename: str,
                     descriptor: PlatformDescriptor,
                     enable_vectorizer: bool) -> str:
    """The content address of one compiled module -- the *same* key the
    disk store files it under, covering the full lowering configuration."""
    return cache_keys.module_key(source, filename, descriptor,
                                 enable_vectorizer)


def compile_source_cached(source: str, filename: str,
                          descriptor: PlatformDescriptor,
                          enable_vectorizer: bool) -> Module:
    """Compile *source* through the default pipeline, memoized per full
    lowering configuration (memory first, then the disk store).

    The ``REPRO_VERIFY_IR`` environment flag runs the IR verifier between
    pipeline passes instead of once at the end; on a cache hit -- memory or
    disk -- the cached module is re-verified once, so the flag still gives a
    verified module without recompiling.
    """
    global _CACHE_HITS, _CACHE_MISSES, _DISK_HITS
    # The compiler loads with the first kernel, not with this module, so
    # processes that only replay synthetic traces never import it; the
    # frontend and the passes load only when a module is really compiled.
    from repro.compiler.ir.verifier import verify_ir_requested, verify_module

    verify_each = verify_ir_requested()
    key = module_cache_key(source, filename, descriptor, enable_vectorizer)
    store = default_store()
    module = _MODULE_CACHE.get(key)
    compiled = False
    if module is not None:
        _CACHE_HITS += 1
        if verify_each:
            verify_module(module)
    else:
        _CACHE_MISSES += 1
        if store is not None:
            payload = store.get("module", key)
            if payload is not None:
                try:
                    with _span("load_kernel", cat="compiler",
                               filename=filename, march=descriptor.march):
                        module = pickle.loads(payload)
                except Exception:
                    # A valid envelope holding an unloadable pickle (e.g. a
                    # different repo revision's IR classes): recompile.
                    module = None
                else:
                    _DISK_HITS += 1
                    if verify_each:
                        verify_module(module)
        if module is None:
            # Chaos hook: fires only on a true compile (memo and disk both
            # missed), so a cached module never turns into a failure.
            _faults.fail("compiler.compile_fail")
            from repro.compiler.frontend import compile_source
            from repro.compiler.transforms.pipeline import (
                default_optimization_pipeline)
            with _span("compile_kernel", cat="compiler", filename=filename,
                       march=descriptor.march):
                module = compile_source(source, filename)
                pipeline = default_optimization_pipeline(
                    vector_width=descriptor.vector.sp_lanes(),
                    enable_vectorizer=enable_vectorizer,
                    verify_each=verify_each,
                )
                pipeline.run(module)
            compiled = True
        _MODULE_CACHE[key] = module
        if compiled and store is not None:
            store.put("module", key, pickle.dumps(module, protocol=4))
    return module
