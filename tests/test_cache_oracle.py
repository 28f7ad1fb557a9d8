"""The cache walk against an independent oracle, and the DRAM controller's
contention window against a direct model of it.

``CacheHierarchy.access_lines`` resolves each line in one pass over dict-
ordered sets, short-circuits repeated same-line accesses and hands out
shared result instances; ``access()`` goes through the same code, so it
cannot serve as its reference.  The oracle here is the former
list-based true-LRU walk: each set keeps a list of tags in LRU order plus a
dirty map, each line is looked up level by level and the upper levels are
filled on the way back, and a line-crossing access walks its lines one by
one and combines fresh results.  Seeded streams -- scattered mixes and
kernel-shaped sweeps, single-hart and 2-4 harts sharing the last level and
the memory controller -- must produce the same results, counters, DRAM
traffic and controller statistics on every platform.
"""

import random
from collections import deque
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cpu.cache import CacheHierarchy, MemoryConfig
from repro.platforms import all_platforms
from repro.smp.memory import MemoryController, SharedMemorySystem

WINDOW = 32
CONTENTION_PER_HART = 0.5


def window_latency(config: MemoryConfig, recent, contention: float) -> int:
    """DRAM latency with ``len(set(recent))`` harts competing."""
    competing = len(set(recent)) or 1
    if competing <= 1:
        return config.latency_cycles
    return int(config.latency_cycles * (1.0 + contention * (competing - 1)))


# -- the oracle ---------------------------------------------------------------------


class _CacheSet:
    """One set with true-LRU replacement: tags most-recently-used last."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lines: List[int] = []
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


class _OracleCache:
    def __init__(self, config):
        self.config = config
        self.sets: Dict[int, _CacheSet] = {}
        self.hits = self.misses = self.writebacks = 0

    def _set_and_tag(self, address: int) -> Tuple[_CacheSet, int]:
        line = address // self.config.line_bytes
        index, tag = line % self.config.num_sets, line // self.config.num_sets
        if index not in self.sets:
            self.sets[index] = _CacheSet(self.config.associativity)
        return self.sets[index], tag

    def access(self, address: int, is_store: bool) -> bool:
        cache_set, tag = self._set_and_tag(address)
        if cache_set.lookup(tag):
            self.hits += 1
            if is_store:
                cache_set.dirty[tag] = True
            return True
        self.misses += 1
        return False

    def fill(self, address: int, is_store: bool) -> bool:
        """Fill the line; return True if a dirty line was evicted."""
        cache_set, tag = self._set_and_tag(address)
        evicted = cache_set.insert(tag, is_store)
        if evicted is not None and evicted[1]:
            self.writebacks += 1
            return True
        return False


class _OracleController:
    def __init__(self, config: MemoryConfig):
        self.config = config
        self.recent = deque(maxlen=WINDOW)
        self.accesses = self.read_bytes = self.write_bytes = 0
        self.contended = 0
        self.per_hart: Dict[int, int] = {}

    def access_latency(self, hart_id: int) -> int:
        self.recent.append(hart_id)
        self.accesses += 1
        self.per_hart[hart_id] = self.per_hart.get(hart_id, 0) + 1
        if len(set(self.recent)) > 1:
            self.contended += 1
        return window_latency(self.config, self.recent, CONTENTION_PER_HART)

    def stats(self) -> dict:
        return {"accesses": self.accesses, "read_bytes": self.read_bytes,
                "write_bytes": self.write_bytes,
                "contended_accesses": self.contended,
                "per_hart_accesses": dict(self.per_hart)}


class _OracleHierarchy:
    def __init__(self, configs, memory, shared=(), controller=None,
                 hart_id=0):
        self.levels = [_OracleCache(config) for config in configs]
        self.levels += list(shared)
        self.memory = memory
        self.controller = controller
        self.hart_id = hart_id
        self.line = self.levels[0].config.line_bytes
        self.dram = {"read_bytes": 0, "write_bytes": 0, "accesses": 0}

    def access_lines(self, accesses) -> List[tuple]:
        out = []
        for address, size, is_store in accesses:
            first = address // self.line
            last = (address + size - 1) // self.line
            if first == last:
                out.append(self._access_line(first * self.line, is_store))
            else:
                out.append(self._access_span(first, last, is_store))
        return out

    def _access_span(self, first: int, last: int, is_store: bool) -> tuple:
        results = [self._access_line(index * self.line, is_store)
                   for index in range(first, last + 1)]
        worst = results[0]
        for result in results[1:]:
            if result[1] > worst[1]:
                worst = result
        return (worst[0], worst[1], any(r[2] for r in results),
                any(r[3] for r in results), sum(r[4] for r in results))

    def _access_line(self, address: int, is_store: bool) -> tuple:
        latency = 0
        for depth, cache in enumerate(self.levels):
            latency += cache.config.hit_latency
            if cache.access(address, is_store):
                for upper in self.levels[:depth]:
                    upper.fill(address, is_store)
                return (cache.config.name, latency, depth > 0, False, 0)
        if self.controller is None:
            latency += self.memory.latency_cycles
        else:
            latency += self.controller.access_latency(self.hart_id)
        written = sum(self.line for cache in self.levels
                      if cache.fill(address, is_store))
        self.dram["read_bytes"] += self.line
        self.dram["write_bytes"] += written
        self.dram["accesses"] += 1
        if self.controller is not None:
            self.controller.read_bytes += self.line
            self.controller.write_bytes += written
        return ("DRAM", latency, True, True, self.line + written)

    def stats(self) -> dict:
        out = {cache.config.name: {"hits": cache.hits, "misses": cache.misses,
                                   "writebacks": cache.writebacks}
               for cache in self.levels}
        out["DRAM"] = dict(self.dram)
        return out


# -- streams ------------------------------------------------------------------------


def _mixed_stream(rng: random.Random, descriptor, length: int, hart: int):
    """Loads and stores of 1-64 bytes at any alignment (so some cross a
    line), over a hart-private hot region that is stored to and read back,
    a region every hart shares, addresses that all map to one set of every
    level (so dirty lines are evicted and written back) and a far random
    region."""
    llc = descriptor.caches[-1]
    set_span = llc.num_sets * llc.line_bytes
    conflict = [0x4000_0000 + k * set_span
                for k in range(2 * llc.associativity + 2)]
    hot = 0x1000_0000 + hart * 0x10_0000
    stream = []
    for _ in range(length):
        pick = rng.random()
        if pick < 0.4:
            address = hot + rng.randrange(16 * 1024)
        elif pick < 0.5:
            address = 0x3000_0000 + rng.randrange(8 * 1024)
        elif pick < 0.85:
            address = rng.choice(conflict) + rng.randrange(128)
        else:
            address = 0x2000_0000 + rng.randrange(64 << 20)
        stream.append((address, rng.randint(1, 64), rng.random() < 0.4))
    return stream


def _sweep_stream(rng: random.Random, descriptor, length: int, hart: int):
    """Kernel-shaped sweeps, the pattern the same-line short-circuit serves:
    in turn a triad (load b[i], load c[i], store a[i]), an in-place update
    (load b[i], store b[i]) and stores down one column of a matrix whose
    rows lie one last-level set span apart (so they share a set at every
    level and dirty lines are evicted).  Elements are 4, 8 or 12 bytes, so a 12-byte element
    sometimes crosses a line, and each sweep starts at a random index, so
    earlier sweeps leave lines to hit."""
    llc = descriptor.caches[-1]
    set_span = llc.num_sets * llc.line_bytes
    a, b, c = (0x1000_0000 + hart * 0x10_0000 + k * 0x4_0000
               for k in range(3))
    matrix = 0x4000_0000 + hart * 0x2000
    rows = 2 * llc.associativity + 2
    stream = []
    kernel = 0
    while len(stream) < length:
        size = rng.choice((4, 8, 12))
        start = rng.randrange(512)
        indices = range(start, start + rng.randint(16, 96))
        if kernel == 0:
            for i in indices:
                stream += [(b + i * size, size, False),
                           (c + i * size, size, False),
                           (a + i * size, size, True)]
        elif kernel == 1:
            for i in indices:
                stream += [(b + i * size, size, False),
                           (b + i * size, size, True)]
        else:
            stream += [(matrix + start * size + row * set_span, size, True)
                       for row in range(rows)]
        kernel = (kernel + 1) % 3
    return stream[:length]


def _fields(result) -> tuple:
    return (result.hit_level, result.latency, result.l1_miss,
            result.llc_miss, result.dram_bytes)


def _counters(stats: dict) -> dict:
    return {level: {key: row[key] for key in row
                    if key not in ("miss_rate", "shared")}
            for level, row in stats.items()}


# -- the cache walk against the oracle ----------------------------------------------


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("pattern", (_mixed_stream, _sweep_stream),
                         ids=("mixed", "sweep"))
@pytest.mark.parametrize("harts", (1, 2, 3, 4))
@pytest.mark.parametrize("descriptor", all_platforms(),
                         ids=lambda descriptor: descriptor.name)
def test_walk_matches_list_lru_oracle(descriptor, harts, pattern, seed):
    """*harts* = 1 is the single-hart hierarchy (fixed DRAM latency); more
    harts share the last level and the contended controller, and their
    accesses interleave in random chunks through ``access_lines`` or
    per-access ``access``."""
    rng = random.Random(seed * 100 + harts)
    caches, memory = descriptor.caches, descriptor.memory
    if harts == 1:
        system = None
        models = [CacheHierarchy(caches, memory)]
        oracles = [_OracleHierarchy(caches, memory)]
    else:
        system = SharedMemorySystem(caches, memory, window=WINDOW,
                                    contention_per_hart=CONTENTION_PER_HART)
        models = [system.hierarchy_for_hart(hart) for hart in range(harts)]
        shared = [_OracleCache(caches[-1])]
        controller = _OracleController(memory)
        oracles = [_OracleHierarchy(caches[:-1], memory, shared, controller,
                                    hart) for hart in range(harts)]
    streams = [pattern(rng, descriptor, 1200, hart) for hart in range(harts)]
    cursors = [0] * harts
    crossings = 0
    while any(cursor < len(stream)
              for cursor, stream in zip(cursors, streams)):
        hart = rng.choice([h for h in range(harts)
                           if cursors[h] < len(streams[h])])
        start = cursors[hart]
        chunk = streams[hart][start:start + rng.randint(1, 60)]
        cursors[hart] = start + len(chunk)
        if rng.random() < 0.8:
            observed = [_fields(r) for r in models[hart].access_lines(chunk)]
        else:
            observed = [_fields(models[hart].access(*access))
                        for access in chunk]
        assert observed == oracles[hart].access_lines(chunk)
        line = caches[0].line_bytes
        crossings += sum(1 for address, size, _ in chunk
                         if address % line + size > line)
    for model, oracle in zip(models, oracles):
        assert _counters(model.stats()) == oracle.stats()
    if system is not None:
        assert system.controller.stats() == controller.stats()
        assert controller.contended > 0
    # Not vacuous: crossings, dirty writebacks, stores that hit and
    # same-line short-circuits occur.
    assert crossings > 0
    assert sum(cache.writebacks for cache in oracles[0].levels) > 0
    assert any(cache.hits for cache in oracles[0].levels)
    assert models[0].fast_path_hits()[caches[0].name] > 0


def test_results_are_canonical_and_immutable():
    """Equal outcomes share one instance, which cannot be mutated."""
    descriptor = all_platforms()[0]
    hierarchy = CacheHierarchy(descriptor.caches, descriptor.memory)
    line = descriptor.caches[0].line_bytes
    stream = [(index * line, 8, False) for index in range(4)] * 2
    stream += [(line - 4, 8, False), (9 * line - 4, 8, False),
               (21 * line - 4, 8, False)]
    results = hierarchy.access_lines(stream)
    by_fields: Dict[tuple, object] = {}
    for result in results:
        assert by_fields.setdefault(_fields(result), result) is result
    assert len(by_fields) < len(results)
    with pytest.raises(AttributeError):
        results[0].latency = 0


# -- the controller's contention window ---------------------------------------------


@pytest.mark.parametrize("window, harts, length", [
    (1, 3, 200),        # a window of one: never contended
    (4, 6, 300),        # more harts than the window holds
    (32, 4, 500),       # the default window
    (64, 3, 40),        # a window longer than the whole sequence
])
@pytest.mark.parametrize("seed", range(3))
def test_controller_window_matches_recent_set_model(window, harts, length,
                                                    seed):
    rng = random.Random(seed)
    config = MemoryConfig(latency_cycles=160)
    controller = MemoryController(config, window=window,
                                  contention_per_hart=CONTENTION_PER_HART)
    assert controller.competing_harts() == 1
    sequence, contended = [], 0
    for _ in range(length):
        # Runs of one hart as well as interleavings.
        hart = sequence[-1] if sequence and rng.random() < 0.5 \
            else rng.randrange(harts)
        sequence.append(hart)
        recent = sequence[-window:]
        assert controller.access_latency(hart) == window_latency(
            config, recent, CONTENTION_PER_HART)
        assert controller.competing_harts() == len(set(recent))
        contended += len(set(recent)) > 1
    stats = controller.stats()
    assert stats["accesses"] == length
    assert stats["contended_accesses"] == contended
    assert stats["per_hart_accesses"] == {
        hart: sequence.count(hart) for hart in set(sequence)}
    if window == 1:
        assert contended == 0
    else:
        assert contended > 0
