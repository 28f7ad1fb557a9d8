"""The SMP memory system: private caches, a shared LLC, contended DRAM.

On every real board the paper profiles, the harts share the last-level cache
and the memory controller while keeping private L1s (the X60 clusters share
an L2, the U74 complex shares its L2, Tiger Lake cores share the L3).  The
SMP model mirrors that split: every cache level of the platform descriptor
except the last is instantiated privately per hart, the last level is one
:class:`~repro.cpu.cache.Cache` instance shared by all harts, and DRAM sits
behind a :class:`MemoryController` with a deterministic bandwidth-contention
model.

Each hart sees the system through a :class:`~repro.cpu.cache.CacheHierarchy`
built with ``shared=`` (the shared levels) and ``controller=`` (the memory
controller): the same class, and the same walk, as the single-hart model, so
the core timing models and PMU event publication work unchanged.  A hart's
L1 miss counters are private, while shared-LLC misses are attributed to the
hart whose access missed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.cpu.cache import Cache, CacheConfig, CacheHierarchy, MemoryConfig


class MemoryController:
    """Shared DRAM with a deterministic bandwidth-contention model.

    Harts advance their own clocks, so contention cannot be modelled with a
    global busy-until timeline.  Instead the controller watches the *access
    interleaving*: it remembers which harts issued the last ``window`` DRAM
    accesses, and stretches the latency of each access by
    ``contention_per_hart`` for every *other* hart currently competing.  With
    a single hart the latency is exactly the configured DRAM latency, so a
    one-hart SMP machine times accesses identically to the single-hart model
    (``tests/test_smp_memory_properties.py`` compares the two walks).  Each
    hart's :class:`~repro.cpu.cache.CacheHierarchy` calls
    :meth:`access_latency` and :meth:`account_bytes` on every DRAM line.
    The interleaving is produced by the deterministic scheduler, which makes
    the whole contention model reproducible run to run.
    """

    def __init__(self, config: MemoryConfig, window: int = 32,
                 contention_per_hart: float = 0.5):
        if window <= 0:
            raise ValueError("window must be positive")
        if contention_per_hart < 0:
            raise ValueError("contention_per_hart must be non-negative")
        self.config = config
        self.window = window
        self.contention_per_hart = contention_per_hart
        self._recent: Deque[int] = deque(maxlen=window)
        self.accesses = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.per_hart_accesses: Dict[int, int] = {}
        self.contended_accesses = 0

    def competing_harts(self) -> int:
        """Number of distinct harts among the recent accesses."""
        return len(set(self._recent)) or 1

    def access_latency(self, hart_id: int) -> int:
        """Record one DRAM access by *hart_id* and return its latency."""
        self._recent.append(hart_id)
        self.accesses += 1
        self.per_hart_accesses[hart_id] = self.per_hart_accesses.get(hart_id, 0) + 1
        competing = self.competing_harts()
        if competing <= 1:
            return self.config.latency_cycles
        self.contended_accesses += 1
        factor = 1.0 + self.contention_per_hart * (competing - 1)
        return int(self.config.latency_cycles * factor)

    def account_bytes(self, read_bytes: int, write_bytes: int) -> None:
        self.read_bytes += read_bytes
        self.write_bytes += write_bytes

    def stats(self) -> Dict[str, object]:
        return {
            "accesses": self.accesses,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "contended_accesses": self.contended_accesses,
            "per_hart_accesses": dict(self.per_hart_accesses),
        }


class SharedMemorySystem:
    """The whole-machine memory fabric: shared LLC + controller, per-hart views.

    All cache levels of the platform descriptor except the last are private
    per hart; the last level is shared.  (Every modelled platform has at
    least two levels; a hypothetical single-level descriptor would share its
    only level, which is the degenerate-but-correct reading.)
    """

    def __init__(self, cache_configs: List[CacheConfig], memory: MemoryConfig,
                 window: int = 32, contention_per_hart: float = 0.5):
        if not cache_configs:
            raise ValueError("at least one cache level is required")
        self.private_configs = list(cache_configs[:-1])
        self.shared_levels = [Cache(cache_configs[-1])]
        self.memory = memory
        self.controller = MemoryController(
            memory, window=window, contention_per_hart=contention_per_hart)
        self.hierarchies: Dict[int, CacheHierarchy] = {}

    def hierarchy_for_hart(self, hart_id: int) -> CacheHierarchy:
        """Hart *hart_id*'s view: its own private levels over the shared
        ones and the controller (built once, then reused)."""
        hierarchy = self.hierarchies.get(hart_id)
        if hierarchy is None:
            hierarchy = CacheHierarchy(
                self.private_configs, self.memory, shared=self.shared_levels,
                controller=self.controller, hart_id=hart_id)
            self.hierarchies[hart_id] = hierarchy
        return hierarchy

    def stats(self) -> Dict[str, object]:
        llc = self.shared_levels[-1]
        return {
            "llc": {
                "hits": llc.hits,
                "misses": llc.misses,
                "miss_rate": llc.miss_rate,
                "writebacks": llc.writebacks,
            },
            "controller": self.controller.stats(),
        }

    def fast_path_hits(self) -> Dict[str, int]:
        """System-wide same-line short-circuit hits per level name.

        Private levels are summed across harts; each shared level is counted
        once (the per-hart views alias the same :class:`Cache` instances).
        Observability only -- see
        :meth:`repro.cpu.cache.CacheHierarchy.fast_path_hits`.
        """
        private = [cache for hierarchy in self.hierarchies.values()
                   for cache in hierarchy.private_levels]
        totals: Dict[str, int] = {}
        for cache in private + self.shared_levels:
            name = cache.config.name
            totals[name] = totals.get(name, 0) + cache.mru_hits
        return totals
