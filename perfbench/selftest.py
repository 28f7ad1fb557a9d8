"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

Checks the properties the timings rest on:

1. Tracing is transparent: small runs of a synthetic trace, a compiled
   kernel and a 2-hart SMP kernel give the same output digest with the
   layer boundaries installed as without them.
2. Attribution is complete: nested self times, the root's unattributed
   remainder included, add up to the root's inclusive time -- on a toy
   call tree with a generator (whose resumes must be timed one by one)
   and on the traced runs of (1).
3. Calibration is transparent and takes its probes out: a run probed by
   the host clock gives the untraced digest, and the clock's probes are
   counted, stopped with it and removed from the normalised time.

Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from calibrate import PERIOD_S, HostClock, normalise  # noqa: E402
from layers import ROOT, LayerProfiler, install_repro  # noqa: E402
from workloads import run_digest  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def attribution_gap(snapshot: dict) -> float:
    total = sum(entry["self_s"] for entry in snapshot.values())
    root = snapshot[ROOT]["inclusive_s"]
    return abs(total - root) / root


class Toy:
    """A call tree: outer -> inner twice, plus a generator of inner calls."""

    def outer(self):
        spin(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        spin(0.001)

    def steps(self, count):
        for _ in range(count):
            self.inner()
            yield
        return count

    def tally(self):
        return True


def toy_checks() -> None:
    originals = dict(vars(Toy))
    profiler = LayerProfiler()
    profiler.patch(Toy, "outer", "timed", "toy.outer")
    profiler.patch(Toy, "inner", "timed", "toy.inner")
    profiler.patch(Toy, "steps", "resumes", "toy.steps")
    profiler.patch(Toy, "tally", "counted", "toy.tally",
                   count=lambda result: 1 if result else 0)
    toy = Toy()
    with profiler.root():
        check(toy.outer() == "done", "wrapped call lost its return value")
        generator = toy.steps(3)
        resumed = 0
        while True:
            try:
                next(generator)
            except StopIteration as stop:
                check(stop.value == 3, "wrapped generator lost its value")
                break
            resumed += 1
            spin(0.001)             # the caller's own time, between resumes
        toy.tally()
    snapshot = profiler.snapshot()
    check(snapshot["toy.outer"]["calls"] == 1, "outer call count")
    check(snapshot["toy.inner"]["calls"] == 5, "inner call count")
    check(snapshot["toy.steps"]["calls"] == resumed + 1,
          "generator resumes must be timed one by one")
    check(snapshot["toy.tally"]["work"] == 1, "counted boundary work")
    outer = snapshot["toy.outer"]
    check(outer["self_s"] < outer["inclusive_s"],
          "nested time must leave outer's self time")
    check(snapshot[ROOT]["self_s"] >= 0.003,
          "time between resumes belongs to the caller")
    check(attribution_gap(snapshot) < 1e-9,
          "self times must add up to the root's inclusive time")
    profiler.uninstall()
    check(all(vars(Toy)[name] is originals[name]
              for name in ("outer", "inner", "steps", "tally")),
          "uninstall must restore the original methods")


def repro_checks() -> None:
    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    cases = [
        ("micro-calltree", {}, ProfileSpec(sample_period=2000)),
        ("matmul-tiled", {"n": 8}, ProfileSpec().counting().with_roofline()),
        ("stream-triad-mt", {"n": 512},
         ProfileSpec().counting().with_cpus(2)),
    ]

    def digests():
        return [run_digest(Session("x60").run(registry.create(name, **params),
                                              spec))
                for name, params, spec in cases]

    plain = digests()
    profiler = LayerProfiler()
    install_repro(profiler)
    try:
        for (name, params, spec), expected in zip(cases, plain):
            profiler.reset()
            with profiler.root():
                run = Session("x60").run(registry.create(name, **params), spec)
            check(run_digest(run) == expected,
                  f"{name}: traced digest differs from the untraced one")
            snapshot = profiler.snapshot()
            check(attribution_gap(snapshot) < 1e-9,
                  f"{name}: self times do not add up to the iteration")
            timed = [n for n, e in snapshot.items()
                     if n != ROOT and e["inclusive_s"] > 0]
            check(bool(timed), f"{name}: no layer boundary was timed")
        vm = profiler.snapshot()["vm.dispatch"]
        check(vm["calls"] > 1 and vm["work"] > 0,
              "run_yielding resumes must reach the vm layer")
    finally:
        profiler.uninstall()
    check(digests() == plain, "uninstalling changed the outputs")


def clock_checks() -> None:
    from repro.api import ProfileSpec, Session
    from repro.workloads import registry

    def digest():
        return run_digest(Session("x60").run(registry.create("micro-calltree"),
                                             ProfileSpec(sample_period=2000)))

    plain = digest()
    clock = HostClock().start()
    try:
        probed = digest()
        spin(10 * PERIOD_S)
    finally:
        clock.stop()
    check(probed == plain, "a probed run's digest differs from the plain one")
    figures = clock.figures()
    check(figures["probes"] >= 5, "the clock took too few probes")
    check(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
          "stop() must disarm the timer and restore SIGALRM")
    check(normalise(figures["probe_s"], figures) == 0.0,
          "probe time must be taken out of the normalised time")
    count = figures["probes"]
    spin(3 * PERIOD_S)
    check(len(clock.probes) == count, "a stopped clock kept probing")


def main() -> None:
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        toy_checks()
        repro_checks()
        clock_checks()
    print("selftest ok")


if __name__ == "__main__":
    main()
