"""Warm worker pools: pre-built machines, warmed compiles, crash recovery.

Two halves live here:

* **Worker side** -- module-level functions a :class:`~concurrent.futures.
  ProcessPoolExecutor` can pickle by reference.  Each worker process keeps a
  pool of *pre-built, never-used* machines per ``(platform, vendor_driver,
  cpus)`` and a warmed :func:`~repro.compiler.cache.compile_source_cached`
  cache (both filled by the pool initializer), so a request pays neither
  machine construction nor a cold compile.  Machines are handed to exactly
  one request and then discarded: a machine's first run is bit-identical to
  a fresh machine's, but PMU and cache state persist across runs, so
  *reusing* one would break the byte-reproducibility the result cache
  serves from.  A replacement is built right after the hand-off, off the
  request's critical path only in the sense that construction is ~ms; the
  expensive per-process state (compiled modules, target lowerings) is
  process-wide and survives every request.
* **Daemon side** -- :class:`WarmPool`, which owns the executor, detects a
  dead worker (``BrokenProcessPool``), respawns the pool once per failure
  generation, and counts restarts.  ``workers=0`` runs requests inline on a
  single daemon-side thread (same worker functions, same warmup) -- the
  mode tests and single-user serving use.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro.api.executor import RunRequest
from repro.service import wire

#: One warm configuration: (platform name, vendor_driver, cpus).
WarmConfig = Tuple[str, bool, int]

#: True when this process executes pool bodies inline (``workers=0``): the
#: crash fault point then raises :data:`WorkerCrash` instead of killing the
#: process, because the "worker" *is* the daemon.  Set by :func:`warm_worker`
#: so forked pool workers always start from their initializer's value.
_INLINE_POOL = False

#: Per-process pool of pre-built machines, keyed by WarmConfig.  Only ever
#: touched from the worker's single executing thread (process pool workers
#: run one task at a time; inline mode uses a one-thread executor).
_MACHINE_POOL: Dict[WarmConfig, List[object]] = {}


def _build_machine(platform: str, vendor_driver: bool, cpus: int):
    from repro.platforms import Machine, platform_by_name
    descriptor = platform_by_name(platform)
    if cpus <= 1:
        return Machine(descriptor, vendor_driver=vendor_driver)
    from repro.smp import MultiHartMachine
    return MultiHartMachine(descriptor, cpus, vendor_driver=vendor_driver)


def _take_machine(config: WarmConfig):
    """Pop a pre-built machine (building on miss) and restock the pool."""
    from repro import telemetry as _telemetry
    builds = _telemetry.REGISTRY.counter(
        "repro_pool_machine_builds_total",
        "Warm-pool machine constructions by reason")
    pool = _MACHINE_POOL.setdefault(config, [])
    if pool:
        machine = pool.pop()
        _telemetry.REGISTRY.counter(
            "repro_pool_machine_handoffs_total",
            "Requests served a pre-built warm-pool machine").inc(
                platform=config[0])
    else:
        machine = _build_machine(*config)
        builds.inc(reason="miss", platform=config[0])
    # Restock immediately: construction is cheap relative to any run, and an
    # always-full pool keeps the next request's hand-off allocation-free.
    if not pool:
        pool.append(_build_machine(*config))
        builds.inc(reason="restock", platform=config[0])
    return machine


def warm_kernel_plan(platforms: Sequence[str],
                     enable_vectorizer: bool = True) -> List[tuple]:
    """Every (platform, source, filename, vectorizer) the registry's kernel
    workloads would compile on *platforms* -- the pool initializer's compile
    warmup plan."""
    from repro.workloads import registry
    plan: List[tuple] = []
    for platform in platforms:
        for name in registry:
            workload = registry.create(name)
            source = getattr(workload, "source", None)
            filename = getattr(workload, "filename", None)
            if isinstance(source, str) and isinstance(filename, str):
                plan.append((platform, source, filename, enable_vectorizer))
    return plan


def warm_worker(configs: Sequence[WarmConfig],
                kernel_plan: Sequence[tuple],
                inline: bool = False) -> None:
    """Pool initializer: pre-build machines and precompile kernels.

    Best-effort by design -- a platform or kernel that cannot warm surfaces
    its real error in the request that needs it, not at pool spawn.
    """
    global _INLINE_POOL
    _INLINE_POOL = inline
    from repro.compiler.cache import compile_source_cached, reset_stats
    from repro.platforms import platform_by_name
    for config in configs:
        try:
            _MACHINE_POOL.setdefault(config, []).append(
                _build_machine(*config))
        except Exception:
            pass
    for platform, source, filename, enable_vectorizer in kernel_plan:
        try:
            compile_source_cached(source, filename,
                                  platform_by_name(platform),
                                  enable_vectorizer)
        except Exception:
            pass
    # Warmup compiles are pool overhead, not request work: zero the tallies
    # so cache_stats() -- and /metrics series folded from it -- attribute
    # only request-driven compiles.
    reset_stats()


# -- worker request bodies ----------------------------------------------------------------
#
# Each returns {"payload": <deterministic, cacheable dict>,
#               "timings": <host-volatile wall-clock phases>,
#               "telemetry": <this request's registry delta + spans>} -- the
# daemon caches/serves the payload and reports the timings via response
# headers only, so cached bytes stay byte-identical across fills.  The
# telemetry key rides *outside* the cached payload: the daemon merges it
# into its own registry when (and only when) the body ran in a separate
# worker process.


def _inject_pool_faults() -> None:
    """Chaos hooks shared by every pool request body."""
    _faults.delay("pool.slow_worker")
    if _faults.fires("pool.worker_crash"):
        import multiprocessing
        if _INLINE_POOL or multiprocessing.parent_process() is None:
            # Only a genuine multiprocessing child may die for real; the
            # inline pool (and any in-process caller) gets the exception
            # the daemon maps to the same WorkerCrashed handling.
            raise WorkerCrash("injected worker crash (inline pool)")
        import os
        os._exit(83)


def execute_run_payload(payload: dict) -> dict:
    """The ``POST /run`` worker body: one RunRequest -> one Run export."""
    _inject_pool_faults()
    from repro import telemetry as _telemetry
    from repro.api.session import Session
    from repro.workloads import registry
    request = RunRequest.from_dict(payload)
    with _telemetry.capture(spans=request.spec.telemetry) as captured:
        session = Session(request.platform,
                          vendor_driver=request.vendor_driver)
        spec = request.spec
        vendor_driver = (request.vendor_driver if spec.vendor_driver is None
                         else spec.vendor_driver)
        try:
            session.adopt_machine(
                _take_machine((session.platform, vendor_driver, spec.cpus)),
                vendor_driver)
        except ValueError:
            # A machine that cannot be built ahead of time (e.g. more harts
            # than the board has) is the session's call: it degrades the run
            # into run.errors exactly like the in-process CLI path does.
            pass
        workload = registry.create(request.workload, **dict(request.params))
        run = session.run(workload, spec)
    return {
        "payload": {"run": run.deterministic_dict(),
                    "renderings": run.renderings()},
        "timings": dict(run.timings),
        "telemetry": captured.to_wire(),
    }


def execute_compare_payload(payload: dict) -> dict:
    """The ``POST /compare`` worker body: one multi-platform Comparison."""
    _inject_pool_faults()
    from repro import telemetry as _telemetry
    from repro.api.session import Session
    from repro.api.spec import ProfileSpec
    spec = ProfileSpec.from_dict(payload.get("spec", {}))
    with _telemetry.capture(spans=spec.telemetry) as captured:
        comparison = Session.compare(
            payload["platforms"], payload["workload"], spec,
            workload_params=dict(payload.get("params", {})))
    timings: Dict[str, float] = {}
    for run in comparison.runs:
        for phase, seconds in run.timings.items():
            timings[phase] = timings.get(phase, 0.0) + seconds
    return {
        "payload": {"comparison": wire.strip_timings(comparison.to_dict()),
                    "report": comparison.report()},
        "timings": timings,
        "telemetry": captured.to_wire(),
    }


def execute_analyze_payload(payload: dict) -> dict:
    """The ``POST /analyze`` worker body: the static-analysis report."""
    _inject_pool_faults()
    from repro import telemetry as _telemetry
    from repro.analysis.report import build_analyze_report
    with _telemetry.capture() as captured:
        report = build_analyze_report(
            platform=payload["platform"],
            cpus=int(payload.get("cpus", 1)),
            workload=payload.get("workload"),
            params=dict(payload.get("params", {})),
            all_workloads=bool(payload.get("all", False)),
        )
    return {"payload": {"analyze": report}, "timings": {},
            "telemetry": captured.to_wire()}


# -- daemon-side pool management ----------------------------------------------------------


class WarmPool:
    """The executor the daemon submits request bodies to.

    ``workers > 0`` owns a ProcessPoolExecutor whose initializer warms each
    worker (machines + compiles); ``workers == 0`` executes inline on one
    daemon-side thread, warming the daemon process itself at construction.
    :meth:`submit` returns a plain :class:`concurrent.futures.Future`; a
    ``BrokenProcessPool`` failure is healed by :meth:`respawn`, which is
    generation-guarded so N requests observing one crash trigger one
    respawn, failing only the requests that were in flight.
    """

    def __init__(self, workers: int,
                 warm_configs: Sequence[WarmConfig] = (),
                 kernel_plan: Sequence[tuple] = ()):
        if workers < 0:
            raise ValueError(f"workers must be >= 0 (got {workers})")
        self.workers = workers
        self.warm_configs = tuple(warm_configs)
        self.kernel_plan = tuple(kernel_plan)
        self.restarts = 0
        self.generation = 0
        self._executor: Optional[Executor] = None
        self._spawn()

    @property
    def concurrency(self) -> int:
        """How many requests can execute at once (inline mode: one)."""
        return max(1, self.workers)

    def _spawn(self) -> None:
        if self.workers == 0:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-inline")
            # Warm the daemon process itself: inline execution shares its
            # module-level machine pool and compile caches.
            warm_worker(self.warm_configs, self.kernel_plan, inline=True)
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=warm_worker,
                initargs=(self.warm_configs, self.kernel_plan))

    def submit(self, fn: Callable[[dict], dict], payload: dict) -> Future:
        return self._executor.submit(fn, payload)

    def respawn(self, observed_generation: int) -> bool:
        """Replace a broken pool, once per failure generation.

        Callers pass the generation they submitted under; the first one to
        report the crash swaps the executor, later reporters see the bumped
        generation and return without double-restarting.
        """
        if observed_generation != self.generation:
            return False
        self.generation += 1
        self.restarts += 1
        broken, self._executor = self._executor, None
        try:
            broken.shutdown(wait=False)
        except Exception:
            pass
        self._spawn()
        return True

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False)


#: The exception type submit() futures raise when a worker process died;
#: re-exported so the daemon does not import concurrent internals.
WorkerCrash = BrokenProcessPool
