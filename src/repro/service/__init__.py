"""Profiling-as-a-service: the ``repro serve`` daemon and its client.

The service turns the profiler into a long-lived process: warm worker
pools (pre-built machines, warmed compile caches), a content-addressed
result cache over the byte-reproducible run exports, bounded admission
with backpressure, and stdlib-only HTTP on both ends.  See
``docs/architecture.md`` ("Service layer") for the request lifecycle.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError, ServiceReply
from repro.service.daemon import (
    BackgroundServer,
    ReproService,
    ServiceConfig,
    serve,
)
from repro.service.pool import WarmPool, warm_kernel_plan, warm_worker
from repro.service.wire import cache_key, canonical_json

__all__ = [
    "BackgroundServer",
    "ReproService",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceReply",
    "WarmPool",
    "cache_key",
    "canonical_json",
    "serve",
    "warm_kernel_plan",
    "warm_worker",
]
