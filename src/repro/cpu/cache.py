"""Set-associative cache hierarchy and DRAM model.

The roofline memory roof and the IPC gap both hinge on the memory subsystem,
so the hierarchy is modelled structurally: per-level set-associative caches
with LRU replacement, a write-allocate / write-back policy, and a DRAM model
characterised by latency and peak bytes/cycle (the paper derives the X60
DRAM roof from a measured 3.16 bytes/cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


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


@dataclass
class AccessResult:
    """Outcome of one memory access walked through the hierarchy."""

    hit_level: str                 # name of the level that served the access, or "DRAM"
    latency: int                   # total latency in cycles
    l1_miss: bool
    llc_miss: bool                 # missed all cache levels
    dram_bytes: int                # bytes moved to/from DRAM (line fills + writebacks)


class _CacheSet:
    """One set of a set-associative cache with true-LRU replacement."""

    __slots__ = ("capacity", "lines", "dirty")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lines: List[int] = []      # tags, most-recently-used last
        self.dirty: Dict[int, bool] = {}

    def lookup(self, tag: int) -> bool:
        if tag in self.dirty:
            self.lines.remove(tag)
            self.lines.append(tag)
            return True
        return False

    def insert(self, tag: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Insert a line; return the evicted ``(tag, was_dirty)`` if any."""
        evicted = None
        if tag in self.dirty:
            self.lines.remove(tag)
        elif len(self.lines) >= self.capacity:
            victim = self.lines.pop(0)
            evicted = (victim, self.dirty.pop(victim))
        self.lines.append(tag)
        self.dirty[tag] = self.dirty.get(tag, False) or dirty
        return evicted

    def mark_dirty(self, tag: int) -> None:
        if tag in self.dirty:
            self.dirty[tag] = True


class Cache:
    """A single set-associative, write-allocate, write-back cache level.

    Fast path: the set/tag split is precomputed as shift/mask operations
    (line size is a power of two by construction; nearly every modelled
    geometry also has a power-of-two set count), and the cache remembers the
    *last line it touched* (hit or fill).  A repeated access to that line is
    guaranteed to hit -- nothing can have evicted it in between, because
    every other hit or fill would have retargeted the memo -- and its LRU
    move is a no-op (the line is already most-recently-used), so the access
    short-circuits to a hit counter bump.  The short-circuit is therefore
    bit-exact: hits, misses, LRU order, dirty bits and writebacks are
    identical with ``fast_path`` off.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: Dict[int, _CacheSet] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: How many hits were served by the same-line short-circuit (a
        #: subset of ``hits``; observability only, never modelled time).
        self.mru_hits = 0
        self.fast_path = True
        self._line_shift = config.line_bytes.bit_length() - 1
        num_sets = config.num_sets
        if num_sets & (num_sets - 1) == 0:
            self._set_mask: Optional[int] = num_sets - 1
            self._set_shift = num_sets.bit_length() - 1
        else:
            self._set_mask = None
            self._set_shift = 0
        # Last-touched-line memo (absolute line number, its set bucket and
        # tag); -1 means no line touched yet.
        self._mru_line = -1
        self._mru_bucket: Optional[_CacheSet] = None
        self._mru_tag = 0

    def _bucket_for(self, line: int) -> Tuple[_CacheSet, int]:
        if self._set_mask is not None:
            set_index = line & self._set_mask
            tag = line >> self._set_shift
        else:
            num_sets = self.config.num_sets
            set_index = line % num_sets
            tag = line // num_sets
        bucket = self._sets.get(set_index)
        if bucket is None:
            bucket = _CacheSet(self.config.associativity)
            self._sets[set_index] = bucket
        return bucket, tag

    def access(self, address: int, is_store: bool) -> bool:
        """Access one line; return True on hit.

        On a miss the line is *not* filled here -- the hierarchy decides how
        far down the miss travels and calls :meth:`fill` on the way back up.
        """
        line = address >> self._line_shift
        if line == self._mru_line and self.fast_path:
            self.hits += 1
            self.mru_hits += 1
            if is_store:
                self._mru_bucket.dirty[self._mru_tag] = True
            return True
        bucket, tag = self._bucket_for(line)
        if bucket.lookup(tag):
            self.hits += 1
            self._mru_line = line
            self._mru_bucket = bucket
            self._mru_tag = tag
            if is_store:
                bucket.mark_dirty(tag)
            return True
        self.misses += 1
        return False

    def fill(self, address: int, is_store: bool) -> bool:
        """Fill the line containing *address*; return True if a dirty line was evicted."""
        line = address >> self._line_shift
        bucket, tag = self._bucket_for(line)
        evicted = bucket.insert(tag, dirty=is_store)
        self._mru_line = line
        self._mru_bucket = bucket
        self._mru_tag = tag
        if evicted is not None and evicted[1]:
            self.writebacks += 1
            return True
        return False

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
        self.fast_path = True
        l1 = self.levels[0]
        self._l1 = l1
        self._line_bytes = l1.config.line_bytes
        self._line_shift = self._line_bytes.bit_length() - 1
        # The canonical result of a repeated single-line L1 hit.  After any
        # access the accessed line is resident in L1 (the hierarchy is
        # inclusive: hits below L1 fill the upper levels on the way back),
        # so when the next single-line access touches L1's last-touched line
        # it must hit L1 -- with exactly this result.  The instance is
        # shared; consumers only read it.  In the degenerate case where L1 is
        # a shared level, its memo asserts residency whichever hart touched
        # the line last.
        self._l1_hit = AccessResult(
            hit_level=l1.config.name, latency=l1.config.hit_latency,
            l1_miss=False, llc_miss=False, dram_bytes=0,
        )

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle the same-line short-circuits (hierarchy and per level).

        Results are bit-identical either way; the switch exists so
        differential suites can run the plain walk as the reference.
        """
        self.fast_path = enabled
        for cache in self.levels:
            cache.fast_path = enabled

    def access(self, address: int, size_bytes: int, is_store: bool) -> AccessResult:
        """Walk one memory access through the hierarchy.

        The per-op twin of :meth:`access_lines` (same result, same state
        afterwards), kept apart as the reference the batched walk is
        compared against.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        shift = self._line_shift
        first = address >> shift
        last = (address + size_bytes - 1) >> shift
        if first != last:
            return self._access_span(first, last, is_store)
        l1 = self._l1
        if first == l1._mru_line and self.fast_path:
            l1.hits += 1
            l1.mru_hits += 1
            if is_store:
                l1._mru_bucket.dirty[l1._mru_tag] = True
            return self._l1_hit
        return self._access_line(first << shift, is_store)

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
        tuples -- the addressed memory ops of one retired batch, in program
        order.  Returns one :class:`AccessResult` per access.  When an
        access spans several cache lines the worst latency is reported (the
        lines are fetched in parallel by the miss handling hardware) and
        DRAM bytes are summed.  A single-line access to the line L1 touched
        last short-circuits the walk entirely (see :class:`Cache`); the
        batched loop lets spatially local streams pay the call overhead once
        and ride that short-circuit in a tight loop.
        """
        out: List[AccessResult] = []
        append = out.append
        shift = self._line_shift
        l1 = self._l1
        fast = self.fast_path
        l1_hit = self._l1_hit
        access_line = self._access_line
        for address, size_bytes, is_store in accesses:
            if size_bytes <= 0:
                raise ValueError("size_bytes must be positive")
            first = address >> shift
            last = (address + size_bytes - 1) >> shift
            if first == last:
                if fast and first == l1._mru_line:
                    l1.hits += 1
                    l1.mru_hits += 1
                    if is_store:
                        l1._mru_bucket.dirty[l1._mru_tag] = True
                    append(l1_hit)
                else:
                    append(access_line(first << shift, is_store))
            else:
                append(self._access_span(first, last, is_store))
        return out

    def _access_span(self, first: int, last: int,
                     is_store: bool) -> AccessResult:
        """Walk lines *first*..*last* of one access and aggregate them."""
        shift = self._line_shift
        worst: Optional[AccessResult] = None
        total_dram = 0
        l1_miss = False
        llc_miss = False
        for line_index in range(first, last + 1):
            result = self._access_line(line_index << shift, is_store)
            total_dram += result.dram_bytes
            l1_miss = l1_miss or result.l1_miss
            llc_miss = llc_miss or result.llc_miss
            if worst is None or result.latency > worst.latency:
                worst = result
        assert worst is not None
        return AccessResult(
            hit_level=worst.hit_level,
            latency=worst.latency,
            l1_miss=l1_miss,
            llc_miss=llc_miss,
            dram_bytes=total_dram,
        )

    def _access_line(self, address: int, is_store: bool) -> AccessResult:
        levels = self.levels
        latency = 0
        for depth, cache in enumerate(levels):
            latency += cache.config.hit_latency
            if cache.access(address, is_store):
                # Fill the levels above (inclusive hierarchy).
                for upper in levels[:depth]:
                    upper.fill(address, is_store)
                return AccessResult(
                    hit_level=cache.config.name,
                    latency=latency,
                    l1_miss=depth > 0,
                    llc_miss=False,
                    dram_bytes=0,
                )
        # Missed every level: go to DRAM.
        controller = self.controller
        if controller is None:
            latency += self.memory.latency_cycles
        else:
            latency += controller.access_latency(self.hart_id)
        line = self._line_bytes
        written = 0
        for cache in levels:
            if cache.fill(address, is_store):
                written += line
        self.dram_read_bytes += line
        self.dram_write_bytes += written
        self.dram_accesses += 1
        if controller is not None:
            controller.account_bytes(line, written)
        return AccessResult(
            hit_level="DRAM",
            latency=latency,
            l1_miss=True,
            llc_miss=True,
            dram_bytes=line + written,
        )

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
