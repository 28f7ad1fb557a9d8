"""The ``repro serve`` daemon: asyncio HTTP/1.1, admission control, caching.

A dependency-free profiling service (``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 reader/writer -- the repo takes no third-party
packages).  Request lifecycle::

    client ──► admission ──► result cache ──► worker pool ──► cache fill ──► client
                  │               │
                  │               └─ hit: serve cached bytes, no worker
                  └─ queue full: 429 + Retry-After

Endpoints:

* ``POST /run``     -- one JSON-shaped :class:`~repro.api.executor.RunRequest`;
  responds ``{"run": ..., "renderings": ...}``.
* ``POST /plan``    -- ``{"requests": [...]}``; each item is served from the
  same per-request cache, misses execute concurrently across the pool.
* ``POST /compare`` -- ``{"platforms": [...], "workload": ..., "spec": ...}``;
  responds ``{"comparison": ..., "report": ...}``.
* ``POST /analyze`` -- ``{"platform": ..., "workload"|"all": ...}``; the
  static-analysis report.
* ``GET /metrics``  -- JSON, or Prometheus text with ``?format=prometheus``.
* ``GET /healthz``, ``GET /capabilities``.

Backpressure: at most ``queue_limit`` requests may be admitted (executing +
waiting) at once; past that the daemon answers 429 with a ``Retry-After``
hint instead of queueing unboundedly.  Admitted requests run under a
concurrency semaphore sized to the worker pool and a per-request timeout
(504 on expiry; the slot is held until the worker actually finishes, so a
timed-out request cannot hide load from admission control).  A worker
process dying fails only the in-flight requests (structured 500s) and
respawns the pool once.

Identical concurrent requests are coalesced: the second request awaits the
first's execution instead of occupying a second worker, then both are
served the same bytes -- the same dedup the result cache provides, extended
to the in-flight window.

Responses carry ``X-Repro-Cache: hit|miss|bypass|coalesced``,
``X-Repro-Elapsed-Ms`` and per-request ``X-Repro-Trace-Id`` headers; cached
*bodies* are byte-identical across hit and fill, which the end-to-end
determinism tests assert.

``GET /metrics`` renders two :class:`~repro.telemetry.MetricsRegistry`
instances, each family under exactly one name: the daemon's own
(``self.registry``: request, execution, rejection, timeout and error
counters, the latency histogram, and queue/pool/cache/breaker gauges sampled
at render time) and the process-wide ``repro.telemetry.REGISTRY`` of engine
tallies.  Worker processes ship each request's engine delta back alongside
the cacheable payload and the daemon merges it into the process registry.
JSON puts the process registry under the ``engine`` key; Prometheus appends
it after the daemon's families.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import faults as _faults
from repro import telemetry as _telemetry
from repro.api.executor import (
    RunRequest,
    WorkerCrash,
    WorkerPool,
    canonical_request,
    execute_request,
    inject_worker_faults,
    merge_shipped,
    run_shipped,
    warmup_plan,
)
from repro.service import wire
from repro.service.cache import ResultCache
from repro.service.resilience import (
    PROBE,
    REFUSE_OPEN,
    REFUSE_QUARANTINED,
    CircuitBreaker,
)


#: Upper bound on accepted request bodies (a plan of a few thousand requests
#: fits; anything bigger is a client bug, answered with 413).
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header clients set to skip the cache lookup (the fill still happens).
BYPASS_HEADER = "x-repro-no-cache"

#: Request-latency histogram bounds, in seconds (Prometheus ``le`` labels).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: The daemon's unlabeled event counters (name -> help).  They start at
#: zero, so every scrape reports them.
_EVENT_COUNTERS = {
    "repro_service_coalesced_total":
        "Requests served by awaiting an identical in-flight run",
    "repro_service_rejected_total":
        "Requests bounced with 429 by admission control",
    "repro_service_timeouts_total":
        "Requests that hit the per-request timeout",
    "repro_service_errors_total":
        "Requests that failed with a structured error",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` is configured by."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Worker processes; 0 executes inline on one daemon-side thread.
    workers: int = 2
    #: Admission bound: executing + queued requests past this get 429.
    queue_limit: int = 32
    #: Per-request execution timeout in seconds (504 past it).
    request_timeout: float = 300.0
    #: Result-cache entry bound.
    cache_entries: int = 256
    #: Platforms whose registry kernels the pool initializer precompiles.
    warm_platforms: Tuple[str, ...] = ("SpacemiT X60",)
    #: Whether the initializer precompiles every registry kernel workload.
    warm_kernels: bool = True
    #: Optional disk-store root backing the result cache: filled entries
    #: persist content-addressed under this directory, so a restarted
    #: daemon (and ``repro sweep`` against the same store) serves them as
    #: hits without re-executing.  None keeps the cache memory-only.
    cache_dir: Optional[str] = None
    #: Graceful-drain budget in seconds: on SIGTERM/SIGINT/:meth:`close`
    #: the daemon stops accepting and lets in-flight requests finish; past
    #: this deadline they get a clean 503 instead of a hung connection.
    drain_timeout: float = 10.0
    #: Crash-loop breaker: this many worker crashes within
    #: ``breaker_window`` seconds open it (degraded cache-only mode).
    breaker_threshold: int = 3
    breaker_window: float = 30.0
    #: Seconds an open breaker waits before half-open probing.
    breaker_cooldown: float = 5.0
    #: Crashes of one cache key before that key is quarantined outright.
    quarantine_after: int = 2


class _DrainAborted(Exception):
    """An in-flight request outlived the drain deadline (internal)."""


class _Reject(Exception):
    """An error response decided before/without executing (status + body)."""

    def __init__(self, status: int, payload: dict,
                 headers: Optional[dict] = None):
        super().__init__(payload.get("error", {}).get("message", ""))
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})


@dataclass
class _HttpRequest:
    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes


# -- worker request bodies ----------------------------------------------------------------
#
# Each returns only the deterministic, cacheable payload; the pool runs it
# under run_shipped, which ships the request's telemetry alongside.


def _run_body(payload: dict) -> dict:
    """``POST /run``: one RunRequest -> one Run export."""
    run = execute_request(RunRequest.from_dict(payload))
    return {"run": run.deterministic_dict(), "renderings": run.renderings()}


def _compare_body(payload: dict) -> dict:
    """``POST /compare``: one multi-platform Comparison."""
    from repro.api.run import strip_timings
    from repro.api.session import Session
    from repro.api.spec import ProfileSpec
    inject_worker_faults()
    comparison = Session.compare(
        payload["platforms"], payload["workload"],
        ProfileSpec.from_dict(payload.get("spec", {})),
        workload_params=dict(payload.get("params", {})))
    return {"comparison": strip_timings(comparison.to_dict()),
            "report": comparison.report()}


def _analyze_body(payload: dict) -> dict:
    """``POST /analyze``: the static-analysis report."""
    from repro.analysis.report import build_analyze_report
    inject_worker_faults()
    return {"analyze": build_analyze_report(
        platform=payload["platform"],
        cpus=int(payload.get("cpus", 1)),
        workload=payload.get("workload"),
        params=dict(payload.get("params", {})),
        all_workloads=bool(payload.get("all", False)),
    )}


class ReproService:
    """One daemon instance: server socket, cache, metrics, worker pool."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        store = None
        if config.cache_dir:
            from repro.cache.store import DiskCache
            store = DiskCache(config.cache_dir)
        self.cache = ResultCache(config.cache_entries, store=store)
        #: This daemon's service series.  Per instance, so two daemons in
        #: one process never share counts; engine tallies stay in the
        #: process-wide ``repro.telemetry.REGISTRY``.
        self.registry = _telemetry.MetricsRegistry()
        for name, help_text in _EVENT_COUNTERS.items():
            self.registry.counter(name, help_text).inc(0)
        self._requests = self.registry.counter(
            "repro_service_requests_total", "Requests seen per endpoint")
        self._executions = self.registry.counter(
            "repro_service_executions_total",
            "Requests executed on a worker, per endpoint")
        self._latency = self.registry.histogram(
            "repro_service_request_seconds", "Request latency per endpoint",
            bounds=LATENCY_BUCKETS)
        warmups = ()
        if config.warm_kernels:
            from repro.workloads import registry
            warmups = warmup_plan([
                RunRequest(self._canonical_platform(platform), name)
                for platform in config.warm_platforms for name in registry])
        self.pool = WorkerPool(config.workers, warmups)
        self._slots = asyncio.Semaphore(self.pool.concurrency)
        self._admitted = 0
        self._in_flight = 0
        #: Monotonic request ordinal; renders the X-Repro-Trace-Id header.
        self._request_seq = 0
        #: Recent pool service times in seconds (executed requests only,
        #: cache hits excluded) -- the observed service rate Retry-After
        #: hints are derived from.
        self._service_seconds: "deque[float]" = deque(maxlen=32)
        self._pending: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            window=config.breaker_window,
            cooldown=config.breaker_cooldown,
            quarantine_after=config.quarantine_after,
            clock=_telemetry.clock)
        self._draining = False
        self._closed = False
        #: Set while no requests are admitted; the drain waits on it.
        self._idle = asyncio.Event()
        self._idle.set()
        #: Set once the drain deadline passes: in-flight awaits abort to 503.
        self._drain_abort = asyncio.Event()
        #: Open connection handlers (the drain waits for responses to flush).
        self._open_connections = 0
        self._no_connections = asyncio.Event()
        self._no_connections.set()

    # -- lifecycle ----------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """The bound port (differs from the config's when it asked for 0)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, timeout: Optional[float] = None) -> dict:
        """Graceful drain: stop accepting, finish (or 503) in-flight work,
        flush the write-through cache.

        In-flight requests get the full ``drain_timeout`` (or *timeout*) to
        complete and write their responses; past the deadline each one is
        answered with a clean 503 ``ShuttingDown`` -- never a hung
        connection or a truncated body.  Returns a small summary dict.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        budget = self.config.drain_timeout if timeout is None else timeout
        aborted = False
        if self._admitted:
            try:
                await asyncio.wait_for(self._idle.wait(), max(0.0, budget))
            except asyncio.TimeoutError:
                aborted = True
                self._drain_abort.set()
        # Whether requests completed or were aborted, wait (bounded) for
        # their connection handlers to write and close -- that is what makes
        # "completes or gets a clean 503" true, not just likely.
        try:
            await asyncio.wait_for(self._no_connections.wait(), 5.0)
        except asyncio.TimeoutError:
            pass
        flushed = self.cache.flush()
        return {"aborted_in_flight": aborted, "cache_flushed": flushed}

    async def close(self, drain_timeout: Optional[float] = None) -> None:
        """Drain gracefully, then shut the worker pool down."""
        if self._closed:
            return
        self._closed = True
        await self.drain(drain_timeout)
        self.pool.shutdown()

    # -- HTTP plumbing ------------------------------------------------------------------

    @staticmethod
    def _canonical_platform(name: str) -> str:
        from repro.platforms import platform_by_name
        return platform_by_name(name).name

    async def _read_request(self, reader: asyncio.StreamReader) -> _HttpRequest:
        request_line = await reader.readline()
        if not request_line.strip():
            raise _Reject(400, wire.error_payload(
                "BadRequest", "empty request line"))
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2))
        except ValueError:
            raise _Reject(400, wire.error_payload(
                "BadRequest", "malformed request line")) from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise _Reject(400, wire.error_payload(
                    "BadRequest", "too many headers"))
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
            if length < 0:
                raise ValueError(length)
        except ValueError:
            raise _Reject(400, wire.error_payload(
                "BadRequest", "malformed Content-Length")) from None
        if length > MAX_BODY_BYTES:
            raise _Reject(413, wire.error_payload(
                "PayloadTooLarge",
                f"request body exceeds {MAX_BODY_BYTES} bytes"))
        body = await reader.readexactly(length) if length else b""
        path, _sep, query_string = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if pair:
                key, _sep, value = pair.partition("=")
                query[key] = value
        return _HttpRequest(method=method, path=path, query=query,
                            headers=headers, body=body)

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str = "application/json",
                        headers: Optional[dict] = None) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._open_connections += 1
        self._no_connections.clear()
        try:
            await self._handle_connection_body(reader, writer)
        finally:
            self._open_connections -= 1
            if self._open_connections == 0:
                self._no_connections.set()

    async def _handle_connection_body(self, reader: asyncio.StreamReader,
                                      writer: asyncio.StreamWriter) -> None:
        status, body = 500, wire.encode_body(
            wire.error_payload("Internal", "unhandled service error"))
        content_type, extra = "application/json", {}
        started = _telemetry.clock()
        endpoint = "unknown"
        self._request_seq += 1
        trace_id = f"req-{self._request_seq:06d}"
        try:
            request = await self._read_request(reader)
            endpoint = f"{request.method} {request.path}"
            status, body, content_type, extra = await self._dispatch(request)
        except _Reject as reject:
            status, body = reject.status, wire.encode_body(reject.payload)
            extra = reject.headers
            self.registry.counter(
                "repro_service_rejected_total" if reject.status == 429
                else "repro_service_errors_total").inc()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # a daemon bug must not kill the server
            status = 500
            body = wire.encode_body(wire.error_payload(
                type(error).__name__, str(error)))
            self.registry.counter("repro_service_errors_total").inc()
        elapsed = _telemetry.clock() - started
        self._requests.inc(endpoint=endpoint)
        self._latency.observe(elapsed, endpoint=endpoint)
        # Interleaved asyncio requests would corrupt a span stack, so each
        # request records as a flat root (no-op while tracing is off).
        _telemetry.record("service_request", cat="service",
                          wall_dur_us=int(elapsed * 1_000_000),
                          trace_id=trace_id, endpoint=endpoint, status=status)
        extra = dict(extra)
        extra.setdefault("X-Repro-Elapsed-Ms", f"{elapsed * 1000:.3f}")
        extra.setdefault("X-Repro-Trace-Id", trace_id)
        # Injected transport faults: both cost the client a retry, never
        # wrong bytes -- a dropped connection surfaces as Unreachable, a
        # stalled response merely delays the identical payload.
        injector = _faults.active()
        if injector is not None:
            if injector.fire("daemon.conn_drop"):
                writer.close()
                return
            if injector.fire("daemon.stall_response"):
                spec = injector.spec_for("daemon.stall_response")
                await asyncio.sleep(spec.ms / 1000.0)
        try:
            self._write_response(writer, status, body, content_type, extra)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # -- routing ------------------------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest):
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, wire.encode_body(self._healthz()), "application/json", {}
        if route == ("GET", "/metrics"):
            return self._metrics_response(request)
        if route == ("GET", "/capabilities"):
            return 200, wire.encode_body(self._capabilities()), \
                "application/json", {}
        if route == ("POST", "/run"):
            return await self._handle_run(request)
        if route == ("POST", "/plan"):
            return await self._handle_plan(request)
        if route == ("POST", "/compare"):
            return await self._handle_compare(request)
        if route == ("POST", "/analyze"):
            return await self._handle_analyze(request)
        known_paths = {"/healthz", "/metrics", "/capabilities", "/run",
                       "/plan", "/compare", "/analyze"}
        if request.path in known_paths:
            raise _Reject(405, wire.error_payload(
                "MethodNotAllowed",
                f"{request.method} not supported on {request.path}"))
        raise _Reject(404, wire.error_payload(
            "NotFound", f"unknown path {request.path}"))

    # -- simple GET endpoints -----------------------------------------------------------

    def _healthz(self) -> dict:
        if self._draining:
            status = "draining"
        elif self.breaker.state() != "closed":
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "workers": self.config.workers,
            "worker_restarts": self.pool.restarts,
            "admitted": self._admitted,
            "queue_limit": self.config.queue_limit,
            "breaker": self.breaker.to_dict(),
        }

    def _metrics_response(self, request: _HttpRequest):
        wants_prometheus = (
            request.query.get("format") == "prometheus"
            or "text/plain" in request.headers.get("accept", ""))
        # Counters accumulate where they happen; gauges are point-in-time,
        # sampled here so either format reports the state at serving time.
        registry = self.registry
        queue = registry.gauge("repro_service_queue",
                               "Admission-control occupancy by state")
        queue.set(max(0, self._admitted - self._in_flight),
                  state="queue_depth")
        queue.set(self._in_flight, state="in_flight")
        queue.set(self.config.queue_limit, state="queue_limit")
        pool_gauge = registry.gauge("repro_service_pool", "Worker-pool state")
        pool_gauge.set(self.pool.workers, state="workers")
        pool_gauge.set(self.pool.restarts, state="restarts")
        cache_gauge = registry.gauge("repro_result_cache",
                                     "Result-cache state by stat")
        for name, value in self.cache.stats().items():
            cache_gauge.set(value, state=name)
        breaker_gauge = registry.gauge("repro_service_breaker",
                                       "Crash-loop breaker state")
        breaker_gauge.set(0 if self.breaker.state() == "closed" else 1,
                          state="open")
        breaker_gauge.set(len(self.breaker.quarantined), state="quarantined")
        breaker_gauge.set(self.breaker.opens, state="opens")
        if wants_prometheus:
            text = registry.prometheus() + _telemetry.REGISTRY.prometheus()
            return 200, text.encode("utf-8"), \
                "text/plain; version=0.0.4; charset=utf-8", {}
        payload = registry.to_dict()
        payload["engine"] = _telemetry.REGISTRY.to_dict()
        return 200, wire.encode_body(payload), "application/json", {}

    def _capabilities(self) -> dict:
        from repro.platforms import all_platforms
        from repro.pmu.vendors import all_capabilities
        from repro.workloads import registry
        capabilities = all_capabilities()
        return {
            "capabilities": [capabilities[d.name].as_row()
                             for d in all_platforms() if d.is_riscv],
            "platforms": [
                {"name": d.name, "arch": d.arch, "board": d.board,
                 "harts": d.harts,
                 "vector": d.vector.extension or "none"}
                for d in all_platforms()
            ],
            "workloads": list(registry),
            "endpoints": ["/run", "/plan", "/compare", "/analyze",
                          "/metrics", "/healthz", "/capabilities"],
        }

    # -- executing endpoints ------------------------------------------------------------

    def _parse_json(self, request: _HttpRequest) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _Reject(400, wire.error_payload(
                "BadRequest", f"request body is not valid JSON: {error}"
            )) from None
        if not isinstance(payload, dict):
            raise _Reject(400, wire.error_payload(
                "BadRequest", "request body must be a JSON object"))
        return payload

    def _canonical_run_request(self, payload: dict) -> dict:
        """:func:`canonical_request` of one request body, so equivalent
        spellings share a cache key; a bad request is a 400 before it
        touches a worker."""
        try:
            return canonical_request(RunRequest.from_dict(payload))
        except (KeyError, ValueError, TypeError) as error:
            raise _Reject(400, wire.error_payload(
                "BadRequest", str(error))) from None

    def _bypass(self, request: _HttpRequest) -> bool:
        return request.headers.get(BYPASS_HEADER, "") not in ("", "0")

    def _retry_after_hint(self, slots_needed: int = 1) -> float:
        """A load-derived Retry-After: how long until the queue has drained
        enough to admit *slots_needed* more requests.

        The backlog (everything admitted plus the rejected request's slots)
        drains in waves of ``pool.concurrency`` at the recently observed
        mean service time, so the hint scales with actual load instead of
        being a constant.  Before any request has completed there is no
        observed rate; fall back to a tenth of the request timeout.
        Clamped to [0.1s, request_timeout] -- fractional, so lightly loaded
        daemons hint sub-second retries; clients parse it as a float from
        header and body alike.
        """
        if not self._service_seconds:
            return float(max(1, int(self.config.request_timeout / 10)))
        mean = sum(self._service_seconds) / len(self._service_seconds)
        backlog = self._admitted + slots_needed
        waves = -(-backlog // self.pool.concurrency)  # ceil division
        return min(self.config.request_timeout,
                   max(0.1, round(waves * mean, 3)))

    def _check_admission(self, slots_needed: int = 1) -> None:
        if self._draining:
            raise _Reject(503, wire.error_payload(
                "ShuttingDown",
                "the service is draining and no longer accepts work",
                retry_after=self.config.drain_timeout),
                headers={"Retry-After": f"{self.config.drain_timeout:g}"})
        if self._admitted + slots_needed > self.config.queue_limit:
            retry_after = self._retry_after_hint(slots_needed)
            raise _Reject(
                429,
                wire.error_payload(
                    "Overloaded",
                    f"admission queue is full ({self._admitted} admitted, "
                    f"limit {self.config.queue_limit}); retry later",
                    retry_after=retry_after),
                # The same fractional value in the header and the error
                # body: ServiceClient reads either source identically.
                headers={"Retry-After": f"{retry_after:g}"})

    async def _pool_result(self, future, loop):
        """Await a pool future, racing the drain-abort signal.

        Past the drain deadline the drain sets ``_drain_abort``; every
        in-flight await loses the race and surfaces :class:`_DrainAborted`
        so its request is answered with a clean 503 instead of hanging
        until the worker (which may be mid-simulation) finishes.
        """
        wrapped = asyncio.ensure_future(
            asyncio.wrap_future(future, loop=loop))
        abort = asyncio.ensure_future(self._drain_abort.wait())
        try:
            done, _pending = await asyncio.wait(
                {wrapped, abort}, timeout=self.config.request_timeout,
                return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            wrapped.cancel()
            raise
        finally:
            abort.cancel()
        if wrapped in done:
            return wrapped.result()
        wrapped.cancel()
        if abort.done():
            raise _DrainAborted()
        raise asyncio.TimeoutError()

    async def _execute_job(self, endpoint: str,
                           fn: Callable[[dict], dict],
                           payload: dict, key: Optional[str] = None,
                           probe: bool = False) -> Tuple[dict, dict]:
        """Run one admitted job on the pool under slot + timeout control;
        returns the body's ``(payload, shipped telemetry)``.

        The admission slot and the concurrency slot are both released when
        the worker *finishes* (future done callback), not when the await
        ends -- a timed-out request keeps occupying capacity until its
        worker is actually free, so admission control never oversubscribes.

        ``key`` (the cache key, when there is one) and ``probe`` feed the
        crash-loop breaker: clean completions and worker crashes are
        reported so it can open, quarantine and close.
        """
        loop = asyncio.get_running_loop()
        self._admitted += 1
        self._idle.clear()
        await self._slots.acquire()
        self._in_flight += 1
        generation = self.pool.generation
        try:
            future = self.pool.submit(run_shipped, fn, payload)
        except Exception as error:
            self._release_job()
            self.pool.respawn(generation)
            raise _Reject(503, wire.error_payload(
                "WorkerPoolUnavailable",
                f"could not submit to the worker pool: {error}")) from None
        def _release_when_done(_future) -> None:
            try:
                loop.call_soon_threadsafe(self._release_job)
            except RuntimeError:
                pass  # loop already closed at shutdown; nothing to release

        future.add_done_callback(_release_when_done)
        self._executions.inc(endpoint=endpoint)
        submitted = _telemetry.clock()
        try:
            result = await self._pool_result(future, loop)
            # Completed executions feed the observed service rate that
            # sizes Retry-After hints under load.
            self._service_seconds.append(_telemetry.clock() - submitted)
            if key is not None:
                self.breaker.record_success(key, probe=probe)
            return result
        except _DrainAborted:
            if probe:
                self.breaker.abort_probe()
            raise _Reject(503, wire.error_payload(
                "ShuttingDown",
                "the service shut down before this request finished; "
                "retry against a live instance",
                retry_after=self.config.drain_timeout),
                headers={"Retry-After":
                         f"{self.config.drain_timeout:g}"}) from None
        except asyncio.TimeoutError:
            if probe:
                self.breaker.abort_probe()
            self.registry.counter("repro_service_timeouts_total").inc()
            raise _Reject(504, wire.error_payload(
                "Timeout",
                f"request exceeded the {self.config.request_timeout:g}s "
                "execution timeout")) from None
        except WorkerCrash:
            if self.pool.respawn(generation):
                note = "the worker pool was respawned"
            else:
                note = "the worker pool had already been respawned"
            if key is not None:
                self.breaker.record_crash(key, probe=probe)
            raise _Reject(500, wire.error_payload(
                "WorkerCrashed",
                f"a worker process died executing this request; {note}; "
                "retry the request")) from None
        except (KeyError, ValueError) as error:
            if probe:
                self.breaker.abort_probe()
            raise _Reject(400, wire.error_payload(
                "BadRequest", str(error))) from None
        except Exception as error:
            if probe:
                self.breaker.abort_probe()
            raise _Reject(500, wire.error_payload(
                type(error).__name__, str(error))) from None

    def _release_job(self) -> None:
        self._admitted = max(0, self._admitted - 1)
        self._in_flight = max(0, self._in_flight - 1)
        self._slots.release()
        if self._admitted == 0:
            self._idle.set()

    async def _execute_cached(self, endpoint: str, kind: str,
                              fn: Callable[[dict], dict], canonical: dict,
                              bypass: bool) -> Tuple[bytes, str]:
        """Serve one canonical request through cache -> coalesce -> pool."""
        key = wire.cache_key(kind, canonical)
        if bypass:
            self.cache.note_bypass()
        else:
            cached = self.cache.get(key)
            if cached is not None:
                return cached, "hit"
            pending = self._pending.get(key)
            if pending is not None:
                self.registry.counter("repro_service_coalesced_total").inc()
                body = await asyncio.shield(pending)
                return body, "coalesced"
        # Cache hits are served above even while degraded; only an actual
        # execution consults the crash-loop breaker.
        verdict, hint = self.breaker.admit(key)
        if verdict == REFUSE_QUARANTINED:
            raise _Reject(503, wire.error_payload(
                "Quarantined",
                "this request crashed worker processes repeatedly and is "
                "quarantined; it will not be retried by this instance"))
        if verdict == REFUSE_OPEN:
            raise _Reject(503, wire.error_payload(
                "Degraded",
                "the service is in degraded cache-only mode after repeated "
                "worker crashes; cache hits are still served, retry later",
                retry_after=hint),
                headers={"Retry-After": f"{hint:g}"})
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        if not bypass:
            self._pending[key] = waiter
        try:
            payload, shipped = await self._execute_job(
                endpoint, fn, canonical, key=key, probe=verdict == PROBE)
            # Inline mode (workers=0) ran in this process, so its tallies
            # already landed here; merging them would double-count.
            if self.pool.workers:
                merge_shipped(shipped, "service_worker", cat="service",
                              endpoint=endpoint)
            body = wire.encode_body(payload)
            self.cache.put(key, body)
            if not waiter.done():
                waiter.set_result(body)
            return body, "bypass" if bypass else "miss"
        except BaseException as error:
            if not waiter.done():
                waiter.set_exception(error)
            # A coalesced waiter that never awaits must not warn on teardown.
            waiter.exception() if waiter.done() else None
            raise
        finally:
            if self._pending.get(key) is waiter:
                del self._pending[key]

    async def _handle_run(self, request: _HttpRequest):
        canonical = self._canonical_run_request(self._parse_json(request))
        bypass = self._bypass(request)
        if not bypass and wire.cache_key("run", canonical) not in self.cache \
                and wire.cache_key("run", canonical) not in self._pending:
            self._check_admission()
        elif bypass:
            self._check_admission()
        body, cache_state = await self._execute_cached(
            "POST /run", "run", _run_body, canonical, bypass)
        return 200, body, "application/json", {"X-Repro-Cache": cache_state}

    async def _handle_plan(self, request: _HttpRequest):
        payload = self._parse_json(request)
        requests = payload.get("requests")
        if not isinstance(requests, list) or not requests:
            raise _Reject(400, wire.error_payload(
                "BadRequest",
                "a plan needs a non-empty 'requests' list"))
        canonicals = [self._canonical_run_request(item) for item in requests]
        bypass = self._bypass(request)
        keys = [wire.cache_key("run", canonical) for canonical in canonicals]
        misses = len(keys) if bypass else sum(
            1 for key in keys
            if key not in self.cache and key not in self._pending)
        self._check_admission(misses)

        async def serve_one(canonical: dict):
            try:
                return await self._execute_cached(
                    "POST /plan", "run", _run_body, canonical, bypass)
            except _Reject as reject:
                return wire.encode_body(reject.payload), "error"

        results = await asyncio.gather(
            *(serve_one(canonical) for canonical in canonicals))
        entries = [json.loads(body.decode("utf-8")) for body, _state in results]
        states = [state for _body, state in results]
        body = wire.encode_body({"runs": entries, "cache": states})
        return 200, body, "application/json", \
            {"X-Repro-Cache": ",".join(states)}

    async def _handle_compare(self, request: _HttpRequest):
        payload = self._parse_json(request)
        from repro.workloads import registry
        try:
            platforms = payload.get("platforms")
            if not isinstance(platforms, list) or len(platforms) < 1:
                raise ValueError("compare needs a 'platforms' list")
            workload = payload.get("workload")
            if workload not in registry:
                raise ValueError(
                    f"unknown workload {workload!r}; available: "
                    f"{', '.join(sorted(registry))}")
            canonical = {
                "platforms": [self._canonical_platform(p) for p in platforms],
                "workload": workload,
                "params": dict(payload.get("params", {})),
                "spec": __import__("repro.api.spec", fromlist=["ProfileSpec"])
                .ProfileSpec.from_dict(payload.get("spec", {})).to_dict(),
            }
        except (KeyError, ValueError, TypeError) as error:
            raise _Reject(400, wire.error_payload(
                "BadRequest", str(error))) from None
        bypass = self._bypass(request)
        if bypass or wire.cache_key("compare", canonical) not in self.cache:
            self._check_admission()
        body, cache_state = await self._execute_cached(
            "POST /compare", "compare", _compare_body, canonical, bypass)
        return 200, body, "application/json", {"X-Repro-Cache": cache_state}

    async def _handle_analyze(self, request: _HttpRequest):
        payload = self._parse_json(request)
        from repro.workloads import registry
        try:
            canonical = {
                "platform": self._canonical_platform(
                    payload.get("platform", "SpacemiT X60")),
                "cpus": int(payload.get("cpus", 1)),
                "workload": payload.get("workload"),
                "params": dict(payload.get("params", {})),
                "all": bool(payload.get("all", False)),
            }
            if not canonical["all"]:
                if canonical["workload"] not in registry:
                    raise ValueError(
                        f"unknown workload {canonical['workload']!r}; "
                        f"available: {', '.join(sorted(registry))}")
        except (KeyError, ValueError, TypeError) as error:
            raise _Reject(400, wire.error_payload(
                "BadRequest", str(error))) from None
        bypass = self._bypass(request)
        if bypass or wire.cache_key("analyze", canonical) not in self.cache:
            self._check_admission()
        body, cache_state = await self._execute_cached(
            "POST /analyze", "analyze", _analyze_body, canonical, bypass)
        return 200, body, "application/json", {"X-Repro-Cache": cache_state}


# -- entry points -------------------------------------------------------------------------


async def _serve(config: ServiceConfig,
                 ready: Optional[Callable[[ReproService], None]] = None) -> None:
    service = ReproService(config)
    await service.start()
    if ready is not None:
        ready(service)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            continue  # non-main thread or unsupported platform
        installed.append(signum)
    try:
        if installed:
            # The server is already accepting (start() above); sleep until
            # a signal asks for the graceful drain.
            await stop.wait()
        else:
            await service.serve_forever()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await service.close()


def serve(config: ServiceConfig,
          announce: Optional[Callable[[str], None]] = None) -> None:
    """Run the daemon until interrupted (the ``repro serve`` body)."""

    def _ready(service: ReproService) -> None:
        if announce is not None:
            announce(service.address)

    try:
        asyncio.run(_serve(config, _ready))
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """A daemon running on a background thread -- tests and benchmarks.

    Use as a context manager::

        with BackgroundServer(ServiceConfig(port=0, workers=0)) as server:
            client = ServiceClient(server.address)

    ``port=0`` binds an ephemeral port; :attr:`address` reports the real one
    once the server is up.  The service object itself is reachable as
    :attr:`service` for white-box assertions (cache stats, restart counts).
    """

    def __init__(self, config: ServiceConfig, startup_timeout: float = 60.0):
        self.config = config
        self.startup_timeout = startup_timeout
        self.service: Optional[ReproService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        #: Exceptions the server thread died with.  Checked -- and re-raised
        #: -- by :attr:`address` and ``__exit__``, so a server that failed
        #: *after* startup (not just during it) cannot fail silently.
        self._failure: list = []

    def _check_failure(self) -> None:
        if self._failure:
            raise self._failure[0]

    @property
    def address(self) -> str:
        self._check_failure()
        if self.service is None:
            raise RuntimeError("server is not running")
        return self.service.address

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Drain the service from the caller's thread (tests exercise the
        graceful-shutdown path without sending a signal)."""
        self._check_failure()
        if self.service is None or self._loop is None:
            raise RuntimeError("server is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(timeout), self._loop)
        return future.result(self.startup_timeout)

    def __enter__(self) -> "BackgroundServer":
        import threading
        started = threading.Event()
        failure = self._failure

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                service = ReproService(self.config)
                loop.run_until_complete(service.start())
                self.service = service
                started.set()
                loop.run_forever()
                loop.run_until_complete(service.close())
            except Exception as error:
                failure.append(error)
                started.set()
            finally:
                loop.close()

        self._thread = __import__("threading").Thread(
            target=_run, name="repro-serve", daemon=True)
        self._thread.start()
        if not started.wait(self.startup_timeout):
            raise RuntimeError("service did not start in time")
        self._check_failure()
        return self

    def __exit__(self, *_exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.startup_timeout)
        # A failure on the server thread -- including one raised during the
        # post-loop close() -- must surface, not vanish with the thread.
        if _exc_info[0] is None:
            self._check_failure()
