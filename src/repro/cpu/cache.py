"""Set-associative cache hierarchy and DRAM model.

The roofline memory roof and the IPC gap both hinge on the memory subsystem,
so the hierarchy is modelled structurally: per-level set-associative caches
with LRU replacement, a write-allocate / write-back policy, and a DRAM model
characterised by latency and peak bytes/cycle (the paper derives the X60
DRAM roof from a measured 3.16 bytes/cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 3

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.line_bytes <= 0 or (self.line_bytes & (self.line_bytes - 1)):
            raise ValueError("line_bytes must be a positive power of two")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of line_bytes*associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM characteristics."""

    latency_cycles: int = 120
    peak_bytes_per_cycle: float = 3.16

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be non-negative")
        if self.peak_bytes_per_cycle <= 0:
            raise ValueError("peak_bytes_per_cycle must be positive")


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access walked through the hierarchy.

    Immutable: the hierarchy hands out one shared instance per outcome.
    """

    hit_level: str                 # name of the level that served the access, or "DRAM"
    latency: int                   # total latency in cycles
    l1_miss: bool
    llc_miss: bool                 # missed all cache levels
    dram_bytes: int                # bytes moved to/from DRAM (line fills + writebacks)


class Cache:
    """A single set-associative, write-allocate, write-back cache level.

    Each set is one insertion-ordered ``dict`` mapping a resident line
    number to its dirty bit, least recently used first: a hit moves the line
    to the end (``d[line] = d.pop(line) or is_store``) and a fill into a full
    set evicts ``next(iter(d))``.  The :class:`CacheHierarchy` walk reads and
    updates this state directly.

    The level also remembers the *last line it touched* (hit or fill).  A
    repeated access to that line is guaranteed to hit -- nothing can have
    evicted it in between, because every other hit or fill would have
    retargeted the memo -- and its LRU move is a no-op (the line is already
    most-recently-used), so the walk skips the move and counts the hit in
    ``mru_hits`` as well.  Hits, misses, LRU order, dirty bits and writebacks
    are those of a plain LRU walk (``tests/test_cache_oracle.py`` checks them
    against an independent list-based model).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.ways = config.associativity
        self.num_sets = config.num_sets
        self.sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: How many hits were served by the same-line short-circuit (a
        #: subset of ``hits``; observability only, never modelled time).
        self.mru_hits = 0
        #: Absolute line number last hit or filled; -1 before any access.
        self.mru_line = -1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.mru_hits = 0


class CacheHierarchy:
    """An inclusive multi-level cache hierarchy in front of DRAM.

    Accesses are performed at cache-line granularity; an access spanning
    multiple lines (for example a 32-byte vector load with a 64-byte line is
    one line, but a crossing access is two) touches each line once.

    *levels* are built privately; the *shared* :class:`Cache` objects sit
    below them, aliased by every hart's view in the SMP memory system.  A
    line that misses every level costs ``memory.latency_cycles``, or
    ``controller.access_latency(hart_id)`` when a controller (the SMP
    :class:`~repro.smp.memory.MemoryController`) is given, which is also
    told the line's bytes through ``account_bytes``.
    """

    def __init__(self, levels: Sequence[CacheConfig], memory: MemoryConfig,
                 shared: Sequence[Cache] = (), controller=None,
                 hart_id: int = 0):
        self.private_levels = [Cache(cfg) for cfg in levels]
        self.shared_levels = list(shared)
        self.levels = self.private_levels + self.shared_levels
        if not self.levels:
            raise ValueError("at least one cache level is required")
        self.memory = memory
        self.controller = controller
        self.hart_id = hart_id
        self.dram_read_bytes = 0
        self.dram_write_bytes = 0
        self.dram_accesses = 0
        l1 = self.levels[0]
        self._l1 = l1
        self._line_bytes = l1.config.line_bytes
        self._line_shift = self._line_bytes.bit_length() - 1
        # The walk: each level paired with the canonical result of a hit
        # there (latency summed over the levels looked up, L1 miss below L1).
        # Results are immutable and shared: ``_results`` holds one instance
        # per field tuple, seeded with the hits and memoising DRAM results
        # and line-crossing aggregates as they occur.
        self._walk: List[Tuple[Cache, AccessResult]] = []
        self._results: Dict[tuple, AccessResult] = {}
        latency = 0
        for depth, cache in enumerate(self.levels):
            latency += cache.config.hit_latency
            key = (cache.config.name, latency, depth > 0, False, 0)
            self._results[key] = AccessResult(*key)
            self._walk.append((cache, self._results[key]))
        self._miss_latency = latency
        # After any access the accessed line is resident in L1 (a line that
        # misses L1 is filled there), so a single-line access
        # to L1's last-touched line must hit L1 -- with exactly this result.
        # In the degenerate case where L1 is a shared level, its memo asserts
        # residency whichever hart touched the line last.
        self._l1_hit = self._walk[0][1]

    def access(self, address: int, size_bytes: int, is_store: bool) -> AccessResult:
        """Walk one memory access through the hierarchy (see
        :meth:`access_lines`)."""
        return self.access_lines(((address, size_bytes, is_store),))[0]

    def fast_path_hits(self) -> Dict[str, int]:
        """Same-line short-circuit hits per level name.

        Observability only (the telemetry run collector folds deltas into
        ``repro_fast_cache_short_circuits_total``); deliberately not part of
        :meth:`stats`, which feeds golden-pinned run exports.
        """
        return {cache.config.name: cache.mru_hits for cache in self.levels}

    def access_lines(self, accesses) -> List[AccessResult]:
        """Walk a stream of memory accesses through the hierarchy, in order.

        *accesses* is a sequence of ``(address, size_bytes, is_store)``
        tuples -- the memory accesses of one retired batch, in program
        order.  Returns one :class:`AccessResult` per access.  When an
        access spans several cache lines each line is walked in turn and the
        results are combined: the worst latency is reported (the lines are
        fetched in parallel by the miss handling hardware; the first line
        wins a tie), DRAM bytes are summed and the miss flags OR-ed.

        A line that misses a level is filled there at once (write-allocate;
        the fill cannot disturb the levels below), so each line is resolved
        in one pass down the levels.  A single-line access to the line L1
        touched last short-circuits the walk entirely (see :class:`Cache`).
        """
        out: List[AccessResult] = []
        append = out.append
        shift = self._line_shift
        line_bytes = self._line_bytes
        l1 = self._l1
        l1_sets = l1.sets
        l1_num_sets = l1.num_sets
        walk = self._walk
        l1_hit = self._l1_hit
        results = self._results
        controller = self.controller
        for address, size_bytes, is_store in accesses:
            if size_bytes <= 0:
                raise ValueError("size_bytes must be positive")
            line = address >> shift
            last = (address + size_bytes - 1) >> shift
            if line == l1.mru_line and line == last:
                l1.hits += 1
                l1.mru_hits += 1
                if is_store:
                    l1_sets[line % l1_num_sets][line] = True
                append(l1_hit)
                continue
            first = line
            while True:
                written = 0
                for cache, hit in walk:
                    bucket = cache.sets[line % cache.num_sets]
                    if line in bucket:
                        cache.hits += 1
                        if line == cache.mru_line:
                            cache.mru_hits += 1
                            if is_store:
                                bucket[line] = True
                        else:
                            bucket[line] = bucket.pop(line) or is_store
                            cache.mru_line = line
                        result = hit
                        break
                    cache.misses += 1
                    if len(bucket) >= cache.ways and bucket.pop(next(iter(bucket))):
                        cache.writebacks += 1
                        written += line_bytes
                    bucket[line] = is_store
                    cache.mru_line = line
                else:
                    # Missed every level: the line came from DRAM, and the
                    # dirty victims of its fills went back there.
                    if controller is None:
                        latency = self._miss_latency + self.memory.latency_cycles
                    else:
                        latency = (self._miss_latency
                                   + controller.access_latency(self.hart_id))
                        controller.account_bytes(line_bytes, written)
                    self.dram_read_bytes += line_bytes
                    self.dram_write_bytes += written
                    self.dram_accesses += 1
                    key = ("DRAM", latency, True, True, line_bytes + written)
                    result = results.get(key)
                    if result is None:
                        result = results[key] = AccessResult(*key)
                if line == first:
                    if line == last:
                        append(result)
                        break
                    worst = result
                    dram_bytes = result.dram_bytes
                    l1_miss = result.l1_miss
                    llc_miss = result.llc_miss
                else:
                    if result.latency > worst.latency:
                        worst = result
                    dram_bytes += result.dram_bytes
                    l1_miss = l1_miss or result.l1_miss
                    llc_miss = llc_miss or result.llc_miss
                    if line == last:
                        key = (worst.hit_level, worst.latency, l1_miss,
                               llc_miss, dram_bytes)
                        result = results.get(key)
                        if result is None:
                            result = results[key] = AccessResult(*key)
                        append(result)
                        break
                line += 1
        return out

    # -- statistics -----------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-level counters (shared levels marked), then DRAM traffic."""
        out: Dict[str, Dict[str, float]] = {}
        for cache in self.levels:
            row = {
                "hits": cache.hits,
                "misses": cache.misses,
                "miss_rate": cache.miss_rate,
                "writebacks": cache.writebacks,
            }
            if cache in self.shared_levels:
                row["shared"] = True
            out[cache.config.name] = row
        out["DRAM"] = {
            "read_bytes": self.dram_read_bytes,
            "write_bytes": self.dram_write_bytes,
            "accesses": self.dram_accesses,
        }
        return out

    def reset_stats(self) -> None:
        """Zero the private levels and DRAM; shared levels keep counting."""
        for cache in self.private_levels:
            cache.reset_stats()
        self.dram_read_bytes = 0
        self.dram_write_bytes = 0
        self.dram_accesses = 0


#: The former name of the hierarchy's fast-path base class, still imported
#: (and its ``access_lines`` patched) by ``perfbench/layers.py``.
FastPathHierarchy = CacheHierarchy
