"""The worker pool and the parallel run executor.

Every modelled machine is deterministic and every :meth:`repro.api.Session.
run` is independent (a session builds its own machines; compiled modules are
memoized per process), so a plan of ``platform x workload x spec`` runs can
execute in any order -- or in parallel -- and produce bit-identical results.
:func:`run_many` exploits that: requests fan out over a :class:`WorkerPool`,
each worker warms its compile cache once (:func:`compile_source_cached`
memoizes per process), and the results come back in request order
regardless of completion order.

:class:`WorkerPool` is the one pool every parallel consumer drives: the
``repro serve`` daemon, :func:`run_plan`/:func:`run_many` (and through them
``Session.compare(..., workers=N)`` and ``repro sweep``).  It owns the
process executor, the warm initializer (:func:`warm_worker` over a
:func:`warmup_plan`), the generation-guarded ``BrokenProcessPool`` respawn
and the ``pool.*`` fault points; :func:`run_shipped` is the one worker entry
point and :func:`merge_shipped` folds what it ships back into the parent.

Requests should carry workloads *by registry name* (plus factory params):
names pickle trivially and each worker builds its own instance.  Concrete
workload objects also work when they pickle (the built-in kernel workloads
do); a workload that cannot be pickled raises a clean ``ValueError`` before
any process is spawned.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import faults as _faults
from repro.api.run import Run
from repro.api.spec import ProfileSpec

#: The exception pool futures raise when a worker process died (the inline
#: pool raises it for an injected crash too).
WorkerCrash = BrokenProcessPool

#: Which pool the current thread executes request bodies for: ``role`` is
#: ``"process"`` in a pool child, ``"inline"`` on a ``workers=0`` pool's
#: thread, and unset everywhere else.  Set only by the pool initializers,
#: so a serial plan or a warmup run in a caller's thread is never armed.
_POOL_THREAD = threading.local()


@dataclass(frozen=True)
class RunRequest:
    """One profiling run of a plan: platform x workload x spec.

    ``platform`` is a platform name or a full
    :class:`~repro.platforms.descriptors.PlatformDescriptor` -- pass the
    descriptor itself for customized platforms, so workers profile exactly
    the machine the caller built instead of the registry platform of the
    same name.  ``workload`` is preferably a registry name; ``params`` are
    then passed to the registry factory (``scale``/``n``...).
    ``vendor_driver`` is the session-wide default for specs that leave it
    unset.
    """

    platform: Union[str, object]
    workload: Union[str, object]
    params: Dict[str, object] = field(default_factory=dict)
    spec: ProfileSpec = field(default_factory=ProfileSpec)
    vendor_driver: bool = True

    # -- wire format --------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-shaped wire format (what ``repro serve`` accepts).

        Wire requests carry the platform and the workload *by name* so any
        process -- a service worker, a remote client -- can rebuild them from
        its own registry; a request holding a concrete descriptor or workload
        object raises ``ValueError`` (ship those through pickle via
        :func:`run_many` instead).  ``params`` must be JSON-serializable.
        """
        if not isinstance(self.platform, str):
            raise ValueError(
                "only platform names serialize to the wire format; got a "
                f"{type(self.platform).__name__} (pass the platform by name)"
            )
        if not isinstance(self.workload, str):
            raise ValueError(
                "only registry workload names serialize to the wire format; "
                f"got a {type(self.workload).__name__} (pass the workload by "
                "registry name, with factory parameters in params)"
            )
        return {
            "platform": self.platform,
            "workload": self.workload,
            "params": dict(self.params),
            "spec": self.spec.to_dict(),
            "vendor_driver": self.vendor_driver,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRequest":
        """Rebuild a request from its :meth:`to_dict` export.

        The round trip is exact (``RunRequest.from_dict(r.to_dict()) == r``),
        including through JSON.  ``spec`` may be a partial dict (missing keys
        take :class:`ProfileSpec` defaults); unknown top-level keys raise
        ``ValueError`` so a typo cannot silently profile the default.
        """
        known = {"platform", "workload", "params", "spec", "vendor_driver"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown RunRequest key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        if "platform" not in payload or "workload" not in payload:
            raise ValueError("a RunRequest needs 'platform' and 'workload'")
        spec = payload.get("spec", {})
        return cls(
            platform=payload["platform"],
            workload=payload["workload"],
            params=dict(payload.get("params", {})),
            spec=spec if isinstance(spec, ProfileSpec)
            else ProfileSpec.from_dict(spec),
            vendor_driver=bool(payload.get("vendor_driver", True)),
        )


def canonical_request(request: RunRequest) -> dict:
    """The canonical wire form of *request*: platform alias resolved, spec
    defaults applied, workload checked against the registry.

    Equivalent spellings canonicalize identically, so the daemon, the sweep
    engine and :func:`request_cache_key` address one run with one
    ``cache_key("run", ...)``.  Raises ``ValueError`` (or the platform
    lookup's error) for a request that cannot name a registered run.
    """
    from repro.platforms import platform_by_name
    from repro.workloads import registry
    canonical = request.to_dict()
    canonical["platform"] = platform_by_name(canonical["platform"]).name
    if canonical["workload"] not in registry:
        raise ValueError(
            f"unknown workload {canonical['workload']!r}; "
            f"available: {', '.join(sorted(registry))}")
    return canonical


def _resolve_workload(request: RunRequest):
    if isinstance(request.workload, str):
        from repro.workloads import registry
        return registry.create(request.workload, **dict(request.params))
    return request.workload


def _platform_key(platform: Union[str, object]) -> str:
    return platform if isinstance(platform, str) else platform.name


# -- worker side --------------------------------------------------------------------------


def inject_worker_faults() -> None:
    """The chaos hook every request body runs first.

    ``pool.slow_worker`` sleeps wherever the body runs.  ``pool.worker_crash``
    kills a pool child process outright, raises :data:`WorkerCrash` on an
    inline pool's thread (the "worker" is the daemon itself), and does
    nothing anywhere else -- a serial in-process plan must never die.
    """
    _faults.delay("pool.slow_worker")
    if _faults.fires("pool.worker_crash"):
        role = getattr(_POOL_THREAD, "role", None)
        if role == "inline":
            raise WorkerCrash("injected worker crash (inline pool)")
        if role == "process":
            os._exit(83)


def execute_request(request: RunRequest) -> Run:
    """Run one request in this process (the worker body of :func:`run_many`).

    Per-request outcomes land in the telemetry registry: ``ok`` when every
    requested analysis was produced, ``partial`` when some were recorded in
    ``run.errors``, ``error`` when the run itself raised.
    """
    from repro import telemetry as _telemetry
    from repro.api.session import Session
    inject_worker_faults()
    outcomes = _telemetry.REGISTRY.counter(
        "repro_executor_requests_total",
        "Executor run requests by outcome")
    try:
        session = Session(request.platform,
                          vendor_driver=request.vendor_driver)
        run = session.run(_resolve_workload(request), request.spec)
    except Exception:
        outcomes.inc(outcome="error")
        raise
    outcomes.inc(outcome="partial" if run.errors else "ok")
    return run


def run_shipped(body: Callable, argument: object, spans: bool = False):
    """The one worker entry point: ``body(argument)`` under
    :func:`repro.telemetry.capture`.

    Returns ``(result, wire)``: the body's result plus the registry delta it
    produced (and span wire dicts when *spans*).  The parent folds *wire* in
    with :func:`merge_shipped` -- only when the body ran in another process.
    """
    from repro import telemetry as _telemetry
    with _telemetry.capture(spans=spans) as captured:
        result = body(argument)
    return result, captured.to_wire()


def merge_shipped(wire: dict, span_name: str, cat: str, **args) -> None:
    """Fold one worker's shipped telemetry into this (parent) process; its
    spans hang under a *span_name* root carrying *args*."""
    from repro import telemetry as _telemetry
    _telemetry.REGISTRY.merge(wire["metrics"])
    if wire["spans"]:
        parent = _telemetry.record(span_name, cat=cat, **args)
        if parent is not None:
            _telemetry.TRACER.attach_wire(wire["spans"], parent=parent)


def warmup_plan(requests: Sequence[RunRequest]) -> List[tuple]:
    """The distinct kernel sources *requests* compile, for per-worker
    warmup (workloads without a KernelC source -- synthetic traces -- drop
    out)."""
    warmups: List[tuple] = []
    seen = set()
    for request in requests:
        workload = _resolve_workload(request)
        source = getattr(workload, "source", None)
        filename = getattr(workload, "filename", None)
        if not isinstance(source, str) or not isinstance(filename, str):
            continue
        key = (_platform_key(request.platform), source,
               request.spec.enable_vectorizer)
        if key not in seen:
            seen.add(key)
            warmups.append((request.platform, source, filename,
                            request.spec.enable_vectorizer))
    return warmups


def warm_worker(warmups: Sequence[tuple]) -> None:
    """Precompile *warmups* into this process's compile cache, so first
    runs don't pay cold compiles."""
    from repro.compiler.cache import compile_source_cached, reset_stats
    from repro.platforms import platform_by_name
    for platform, source, filename, enable_vectorizer in warmups:
        try:
            descriptor = (platform_by_name(platform)
                          if isinstance(platform, str) else platform)
            compile_source_cached(source, filename, descriptor,
                                  enable_vectorizer)
        except Exception:
            # Warmup is best-effort; a kernel that cannot compile surfaces
            # its real error in the run that needs it.
            pass
    # Warmup compiles are pool overhead, not request work: zero the tallies
    # so cache_stats() -- and the telemetry folded from it -- attributes
    # only request-driven compiles.
    reset_stats()


def _enter_process_worker(warmups: Sequence[tuple]) -> None:
    _POOL_THREAD.role = "process"
    warm_worker(warmups)


def _enter_inline_worker() -> None:
    _POOL_THREAD.role = "inline"


class WorkerPool:
    """The executor request bodies are submitted to.

    ``workers > 0`` owns a ProcessPoolExecutor whose initializer warms each
    worker; ``workers == 0`` executes inline on one thread of this process,
    warming the process itself at construction.  :meth:`submit` returns a
    plain :class:`concurrent.futures.Future`; a ``BrokenProcessPool``
    failure is healed by :meth:`respawn`, which is generation-guarded so N
    requests observing one crash trigger one respawn.
    """

    def __init__(self, workers: int, warmups: Sequence[tuple] = ()):
        if workers < 0:
            raise ValueError(f"workers must be >= 0 (got {workers})")
        self.workers = workers
        self.warmups = tuple(warmups)
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
            from concurrent.futures import ThreadPoolExecutor
            # Inline execution shares this process's compile caches.
            warm_worker(self.warmups)
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-inline-worker",
                initializer=_enter_inline_worker)
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_enter_process_worker,
                initargs=(self.warmups,))

    def submit(self, fn: Callable, *args) -> Future:
        return self._executor.submit(fn, *args)

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

    def shutdown(self, wait: bool = False) -> None:
        """Stop the pool; by default without waiting for running bodies,
        so a stalled worker cannot block a daemon's drain."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)


def _check_picklable(requests: Sequence[RunRequest]) -> None:
    for request in requests:
        try:
            pickle.dumps(request)
        except Exception as error:
            raise ValueError(
                f"request for workload {getattr(request.workload, 'name', request.workload)!r} "
                "cannot be sent to a worker process; pass the workload by "
                f"registry name instead ({error})"
            ) from error


def request_cache_key(request: RunRequest) -> Optional[str]:
    """The canonical ``result``-kind cache key of *request* (matching sweep
    cell and daemon keys), or None when the request has no canonical form
    (object platforms/workloads, unregistered names)."""
    from repro.cache import keys as cache_keys
    try:
        return cache_keys.cache_key("run", canonical_request(request))
    except Exception:
        return None


@dataclass(frozen=True)
class RunFailure:
    """One request's failure under ``isolate_errors``: what raised, where.

    ``cache_key`` is the request's canonical result key (when derivable),
    so a failing sweep cell is identifiable in journals and trajectories.
    """

    index: int
    error_type: str
    message: str
    cache_key: Optional[str] = None


def _failure_for(index: int, request: RunRequest,
                 error: BaseException) -> RunFailure:
    return RunFailure(index=index, error_type=type(error).__name__,
                      message=str(error) or type(error).__name__,
                      cache_key=request_cache_key(request))


def _crash_message(index: int, total: int, request: RunRequest,
                   abandoned: bool) -> str:
    workload = getattr(request.workload, "name", request.workload)
    key = request_cache_key(request)
    detail = f"cache key {key}" if key else "cache key unavailable"
    message = (
        f"a worker process died executing request {index} of {total} "
        f"(platform {_platform_key(request.platform)!r}, workload "
        f"{workload!r}); the request was retried once on a respawned pool "
        f"and the worker died again ({detail})")
    if abandoned:
        message += "; the remaining requests were abandoned"
    return message


#: Per-request callback: ``on_outcome(index, Run | RunFailure)``, invoked
#: exactly once per request as its result is consumed.
OutcomeCallback = Callable[[int, Union[Run, RunFailure]], None]


def run_plan(requests: Sequence[RunRequest],
             workers: Optional[int] = None,
             isolate_errors: bool = False,
             on_outcome: Optional[OutcomeCallback] = None,
             ) -> List[Union[Run, RunFailure]]:
    """Execute *requests*, returning a :class:`Run` or :class:`RunFailure`
    per request in request order.

    The scheduling contract matches :func:`run_many` (serial under
    ``workers <= 1``, process pool above, bit-identical results either
    way).  Two behaviors layer on top:

    * A request whose worker process dies (``BrokenProcessPool``) is
      retried exactly once on the respawned pool -- results already
      completed by other workers are kept.  A second death surfaces as a
      clean ``RuntimeError`` naming the request and its canonical cache
      key, or as a :class:`RunFailure` under ``isolate_errors``.
    * ``isolate_errors=True`` converts any per-request exception into a
      :class:`RunFailure` instead of aborting the plan -- the sweep
      engine's per-cell isolation.

    ``on_outcome`` fires once per request as outcomes are consumed (in
    request order within a pool generation), which is what lets a sweep
    journal completed cells incrementally: anything journaled was fully
    delivered, whatever happens to the process afterwards.
    """
    requests = list(requests)
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (got {workers})")
    if workers is None:
        workers = os.cpu_count() or 1
    results: List[Optional[Union[Run, RunFailure]]] = [None] * len(requests)

    def deliver(index: int, outcome: Union[Run, RunFailure]) -> None:
        results[index] = outcome
        if on_outcome is not None:
            on_outcome(index, outcome)

    if workers <= 1 or len(requests) <= 1:
        # Serial plans stay on the caller's thread: the tracer's span stack
        # is thread-local, so an inline pool thread would re-parent spans.
        for index, request in enumerate(requests):
            try:
                run = execute_request(request)
            except Exception as error:
                if not isolate_errors:
                    raise
                deliver(index, _failure_for(index, request, error))
            else:
                deliver(index, run)
        return list(results)

    _check_picklable(requests)
    pool = WorkerPool(min(workers, len(requests)), warmup_plan(requests))
    retried: set = set()
    pending = list(range(len(requests)))
    try:
        while pending:
            generation = pool.generation
            broken: Optional[tuple] = None
            futures = [pool.submit(run_shipped, execute_request,
                                   requests[index],
                                   requests[index].spec.telemetry)
                       for index in pending]
            for index, future in zip(pending, futures):
                request = requests[index]
                try:
                    run, shipped = future.result()
                except WorkerCrash as error:
                    # The first broken future in submission order is the
                    # suspect; later futures may still hold completed work,
                    # so keep consuming instead of discarding the batch.
                    if broken is None:
                        broken = (index, error)
                    continue
                except Exception as error:
                    if not isolate_errors:
                        raise
                    deliver(index, _failure_for(index, request, error))
                else:
                    merge_shipped(
                        shipped, "run_many_worker", cat="run", index=index,
                        platform=_platform_key(request.platform),
                        workload=getattr(request.workload, "name",
                                         request.workload))
                    deliver(index, run)
            if broken is None:
                break
            index, error = broken
            if index in retried:
                if not isolate_errors:
                    raise RuntimeError(_crash_message(
                        index, len(requests), requests[index],
                        abandoned=True)) from error
                deliver(index, RunFailure(
                    index=index, error_type="WorkerCrash",
                    message=_crash_message(index, len(requests),
                                           requests[index], abandoned=False),
                    cache_key=request_cache_key(requests[index])))
            else:
                retried.add(index)
            pool.respawn(generation)
            pending = [i for i in pending if results[i] is None]
    finally:
        pool.shutdown(wait=True)
    return list(results)


def run_many(requests: Sequence[RunRequest],
             workers: Optional[int] = None) -> List[Run]:
    """Execute *requests* and return their :class:`Run` results in order.

    ``workers`` of 0 or 1 (or a single-request plan) runs serially
    in-process; a negative count raises ``ValueError`` (it is always a bug,
    not a request for the serial path).  More workers fan out over a process
    pool; every run is deterministic and isolated, so results -- and their
    order, which always matches the request order -- are bit-identical to
    the serial path.  ``workers=None`` uses one worker per CPU (capped at
    the plan size).  A worker process dying mid-plan (OOM kill, hard crash
    in a workload) gets exactly one retry on the respawned pool; a second
    death raises a ``RuntimeError`` naming the victim request and its
    canonical cache key instead of surfacing a raw ``BrokenProcessPool``
    traceback.
    """
    return run_plan(requests, workers=workers)  # type: ignore[return-value]
