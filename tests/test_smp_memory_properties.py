"""Property-based tests (seeded, stdlib ``random``) for the SMP memory model.

The windowed bandwidth-contention model of
:class:`~repro.smp.memory.MemoryController` carries the whole SMP timing
story, so its invariants are pinned down over randomly generated access
interleavings rather than a handful of hand-written sequences:

* **determinism** -- the same access interleaving always produces the same
  per-access latencies and the same statistics;
* **monotonicity** -- a window with more distinct competing harts never makes
  an access *faster*, and steady-state round-robin latency is exactly the
  closed-form ``base * (1 + c * (k - 1))``;
* **single-hart collapse** -- one hart alone always pays exactly the base
  DRAM latency, including after other harts age out of the window;
* **one walk** -- a one-hart SMP view (private levels over the shared LLC and
  the controller) resolves every access like the single-hart
  :class:`~repro.cpu.cache.CacheHierarchy` of the same descriptor, through
  ``access`` and ``access_lines``, with the same-line fast path on and off.

Every case draws its parameters from ``random.Random(seed)`` over a seed
range, so failures reproduce exactly.
"""

import random

import pytest

from repro.cpu.cache import CacheHierarchy, MemoryConfig
from repro.platforms import all_platforms
from repro.smp.memory import MemoryController, SharedMemorySystem

SEEDS = range(24)


def _random_controller(rng: random.Random) -> MemoryController:
    return MemoryController(
        MemoryConfig(latency_cycles=rng.randrange(40, 400)),
        window=rng.randrange(2, 64),
        contention_per_hart=rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]),
    )


def _random_interleaving(rng: random.Random, harts: int, length: int):
    return [rng.randrange(harts) for _ in range(length)]


@pytest.mark.parametrize("seed", SEEDS)
def test_contention_is_deterministic(seed):
    """Same interleaving, fresh controller: identical latencies and stats."""
    rng = random.Random(seed)
    harts = rng.randrange(1, 6)
    accesses = _random_interleaving(rng, harts, rng.randrange(50, 400))
    params = rng.getstate()

    def run():
        rng.setstate(params)
        controller = _random_controller(rng)
        latencies = [controller.access_latency(hart) for hart in accesses]
        return latencies, controller.stats()

    assert run() == run()


@pytest.mark.parametrize("seed", SEEDS)
def test_single_hart_always_pays_base_latency(seed):
    """One requester is never contended, whatever the model parameters."""
    rng = random.Random(seed)
    controller = _random_controller(rng)
    base = controller.config.latency_cycles
    hart = rng.randrange(8)
    latencies = [controller.access_latency(hart)
                 for _ in range(rng.randrange(10, 200))]
    assert set(latencies) == {base}
    assert controller.contended_accesses == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_lone_hart_collapses_back_to_base_after_window_ages_out(seed):
    """Contention is windowed: harts that stop competing stop costing."""
    rng = random.Random(seed)
    controller = _random_controller(rng)
    base = controller.config.latency_cycles
    window = controller.window
    # A burst of multi-hart traffic, then one hart running alone.
    for hart in _random_interleaving(rng, 4, rng.randrange(20, 100)):
        controller.access_latency(hart)
    solo = [controller.access_latency(0) for _ in range(window + 1)]
    # Once hart 0's own accesses fill the window, every later access is flat.
    assert solo[-1] == base
    assert all(latency == base for latency in solo[window:])


@pytest.mark.parametrize("seed", SEEDS)
def test_latency_monotone_in_competing_harts(seed):
    """Round-robin over k harts: steady-state latency is closed-form and
    non-decreasing in k."""
    rng = random.Random(seed)
    base = rng.randrange(40, 400)
    contention = rng.choice([0.0, 0.25, 0.5, 1.0])
    window = rng.randrange(8, 64)
    steady = []
    for k in (1, 2, 3, 4):
        controller = MemoryController(MemoryConfig(latency_cycles=base),
                                      window=window,
                                      contention_per_hart=contention)
        latencies = [controller.access_latency(index % k)
                     for index in range(window + 4 * k)]
        # After the window is saturated with all k harts the latency settles.
        settled = latencies[-1]
        assert settled == int(base * (1.0 + contention * (k - 1)))
        steady.append(settled)
    assert steady == sorted(steady)


@pytest.mark.parametrize("seed", SEEDS)
def test_more_competitors_never_speed_up_an_access(seed):
    """Pointwise monotonicity: replaying a hart's accesses with extra
    competitors interleaved never lowers any of that hart's latencies."""
    rng = random.Random(seed)
    base = rng.randrange(40, 400)
    contention = rng.choice([0.25, 0.5, 1.0])
    window = rng.randrange(4, 32)
    count = rng.randrange(10, 60)

    def hart0_latencies(competitors: int):
        controller = MemoryController(MemoryConfig(latency_cycles=base),
                                      window=window,
                                      contention_per_hart=contention)
        observed = []
        for _ in range(count):
            observed.append(controller.access_latency(0))
            for competitor in range(1, competitors + 1):
                controller.access_latency(competitor)
        return observed

    alone = hart0_latencies(0)
    for competitors in (1, 2, 3):
        contended = hart0_latencies(competitors)
        previous = hart0_latencies(competitors - 1)
        assert all(now >= was for now, was in zip(contended, alone))
        assert all(now >= was for now, was in zip(contended, previous))
        assert sum(contended) >= sum(previous)


def _random_stream(rng: random.Random, descriptor, length: int):
    """Loads and stores of 1-64 bytes at any alignment (so some cross a
    line) over a hot region, a far random region and addresses that all map
    to one LLC set (so lines are evicted, dirty ones written back)."""
    llc = descriptor.caches[-1]
    set_span = llc.num_sets * llc.line_bytes
    conflict = [0x4000_0000 + k * set_span
                for k in range(2 * llc.associativity + 2)]
    stream = []
    for _ in range(length):
        pick = rng.random()
        if pick < 0.5:
            address = 0x1000_0000 + rng.randrange(16 * 1024)
        elif pick < 0.8:
            address = rng.choice(conflict) + rng.randrange(128)
        else:
            address = 0x2000_0000 + rng.randrange(64 << 20)
        stream.append((address, rng.randint(1, 64), rng.random() < 0.4))
    return stream


def _sweep_stream(rng: random.Random, descriptor, length: int):
    """Kernel-shaped sweeps of 4-12 byte elements, where consecutive
    accesses keep hitting one line: in turn a triad (load b[i], load c[i],
    store a[i]), an in-place update (load b[i], store b[i]) and stores
    down one column of a matrix whose rows all map to one LLC set."""
    llc = descriptor.caches[-1]
    set_span = llc.num_sets * llc.line_bytes
    a, b, c = (0x1000_0000 + k * 0x4_0000 for k in range(3))
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
            stream += [(0x4000_0000 + start * size + row * set_span, size, True)
                       for row in range(2 * llc.associativity + 2)]
        kernel = (kernel + 1) % 3
    return stream[:length]


def _resolve(hierarchy, stream, batched: bool, rng: random.Random):
    if not batched:
        return [hierarchy.access(*access) for access in stream]
    results, start = [], 0
    while start < len(stream):
        end = start + rng.randint(1, 200)
        results.extend(hierarchy.access_lines(stream[start:end]))
        start = end
    return results


def _without_shared(stats):
    return {level: {key: value for key, value in row.items() if key != "shared"}
            for level, row in stats.items()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("batched", (False, True), ids=("access", "access_lines"))
@pytest.mark.parametrize("pattern", (_random_stream, _sweep_stream),
                         ids=("mixed", "sweep"))
@pytest.mark.parametrize("descriptor", all_platforms(),
                         ids=lambda descriptor: descriptor.name)
def test_one_hart_smp_walk_matches_single_hart(descriptor, pattern, batched,
                                               seed):
    rng = random.Random(seed)
    stream = pattern(rng, descriptor, 1500)
    single = CacheHierarchy(descriptor.caches, descriptor.memory)
    hart = SharedMemorySystem(descriptor.caches,
                              descriptor.memory).hierarchy_for_hart(0)
    chunking = rng.getstate()
    observed = []
    for hierarchy in (single, hart):
        rng.setstate(chunking)
        observed.append([
            (r.hit_level, r.latency, r.l1_miss, r.llc_miss, r.dram_bytes)
            for r in _resolve(hierarchy, stream, batched, rng)])
    assert observed[0] == observed[1]
    assert _without_shared(single.stats()) == _without_shared(hart.stats())
    assert hart.stats()[descriptor.caches[-1].name]["shared"] is True
    # Not vacuous: DRAM fills, dirty writebacks and line crossings occur.
    line = descriptor.caches[0].line_bytes
    assert any(result[4] > line for result in observed[0])
    assert any((address % line) + size > line for address, size, _ in stream)
