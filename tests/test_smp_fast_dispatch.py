"""Differential suite: fast-dispatch SMP execution vs. the reference interpreter.

The SMP path executes compiled-kernel thread quanta through the predecoded,
batch-retiring engine (``spec.fast_dispatch=True``, the default) with the
original instruction-at-a-time interpreter kept as the reference semantics.
This suite pins down the load-bearing property: for every registered
parallel workload, on 1, 2 and 4 harts, the two engines produce

* bit-identical counting stats (raw counts, multiplex-scaled counts and the
  ``time_enabled``/``time_running`` multiplex times, per hart and aggregate),
* bit-identical per-hart sample streams (ip, time, cpu, callchain, group
  readouts -- everything except the process-global pids),
* bit-identical ``ScheduleTrace`` interleavings (the engine is the quantum
  generator, and both dispatch paths must yield after the same dynamic
  instruction), and
* an identical full ``Run.to_dict()`` export (hotspots, flame graphs,
  per-hart breakdowns) modulo the spec's own ``fast_dispatch`` field.
"""

import pytest

from repro.api import ProfileSpec, Session
from repro.miniperf.stat import DEFAULT_STAT_EVENTS
from repro.workloads import registry
from repro.workloads.parallel import ParallelWorkload

PLATFORM = "SpacemiT X60"
HART_COUNTS = (1, 2, 4)

#: Sizes small enough for a differential run (the default sizes are tuned
#: for the scaling benchmarks); unknown workloads fall back to their factory
#: defaults, so a newly registered parallel workload is covered automatically.
SMALL_PARAMS = {
    "matmul-parallel": {"n": 16},
    "stream-triad-mt": {"n": 384},
    "forkjoin-calltree": {"scale": 1},
}

PARALLEL_WORKLOADS = sorted(
    name for name in registry if isinstance(registry[name], ParallelWorkload)
)


def _workload(name: str):
    return registry.create(name, **SMALL_PARAMS.get(name, {}))


def _run(name: str, spec: ProfileSpec, fast: bool):
    """One run on a fresh Session (fresh machines: no cross-run cache state)."""
    session = Session(PLATFORM)
    return session.run(_workload(name), spec.replace(fast_dispatch=fast))


def _comparable_dict(run) -> dict:
    """Everything the run exported, minus the spec (it names the engine) and
    the wall-clock phase timings (the one non-deterministic field)."""
    payload = run.to_dict()
    payload.pop("spec")
    payload.pop("timings", None)
    return payload


def _sample_tuples(recording):
    """Sample identity minus pids (allocated from a process-global counter)."""
    return [
        (s.cpu, s.ip, s.time, s.period, s.event, tuple(s.callchain),
         dict(s.group_values))
        for s in recording.samples
    ]


def test_covers_all_registered_parallel_workloads():
    assert set(PARALLEL_WORKLOADS) >= {
        "matmul-parallel", "stream-triad-mt", "forkjoin-calltree"
    }


@pytest.mark.parametrize("cpus", HART_COUNTS)
@pytest.mark.parametrize("name", PARALLEL_WORKLOADS)
class TestCountingDifferential:
    """stat runs: batched event aggregation vs. per-op retirement."""

    SPEC = ProfileSpec(analyses=("stat",), events=DEFAULT_STAT_EVENTS)

    def test_counters_multiplex_times_and_schedule_identical(self, name, cpus):
        fast = _run(name, self.SPEC.with_cpus(cpus), fast=True)
        slow = _run(name, self.SPEC.with_cpus(cpus), fast=False)

        assert _comparable_dict(fast) == _comparable_dict(slow)

        # Raw counts AND multiplex times, per hart: CorrectedCount carries
        # raw, scaled, time_enabled and time_running, and compares field-wise.
        fast_stats = fast.stat.per_hart if cpus > 1 else [fast.stat]
        slow_stats = slow.stat.per_hart if cpus > 1 else [slow.stat]
        assert len(fast_stats) == len(slow_stats) == cpus
        for fast_hart, slow_hart in zip(fast_stats, slow_stats):
            assert fast_hart.counts == slow_hart.counts
            assert fast_hart.unsupported == slow_hart.unsupported

        if cpus > 1:
            assert fast.schedule is not None
            assert fast.schedule.quanta == slow.schedule.quanta
            assert fast.schedule.threads_per_hart == \
                slow.schedule.threads_per_hart


@pytest.mark.parametrize("cpus", HART_COUNTS)
@pytest.mark.parametrize("name", PARALLEL_WORKLOADS)
class TestSamplingDifferential:
    """record runs: any armed sampling counter forces per-op retirement."""

    SPEC = ProfileSpec(sample_period=1_000,
                       analyses=("hotspots", "flamegraph"))

    def test_sample_streams_and_schedule_identical(self, name, cpus):
        fast = _run(name, self.SPEC.with_cpus(cpus), fast=True)
        slow = _run(name, self.SPEC.with_cpus(cpus), fast=False)

        assert not fast.errors and not slow.errors
        assert _comparable_dict(fast) == _comparable_dict(slow)

        # Full merged stream plus each hart's sub-stream, sample by sample.
        assert _sample_tuples(fast.recording) == _sample_tuples(slow.recording)
        assert fast.recording.sample_count > 0
        if cpus > 1:
            for fast_hart, slow_hart in zip(fast.recording.per_hart,
                                            slow.recording.per_hart):
                assert _sample_tuples(fast_hart) == _sample_tuples(slow_hart)
            assert fast.recording.final_counts == slow.recording.final_counts
            assert fast.schedule.quanta == slow.schedule.quanta


class TestEngineQuantum:
    """run_yielding itself: preemption mid-function, state preserved."""

    def _engine(self, fast: bool, n: int = 64):
        from repro.compiler.cache import compile_source_cached
        from repro.compiler.targets import target_for_platform
        from repro.platforms import Machine, spacemit_x60
        from repro.vm import ExecutionEngine, Memory
        from repro.workloads.kernels import STREAM_TRIAD_SOURCE, triad_args_builder

        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        task = machine.create_task("triad")
        module = compile_source_cached(STREAM_TRIAD_SOURCE, "triad.c", descriptor,
                                       enable_vectorizer=True)
        memory = Memory()
        args = list(triad_args_builder(n)(memory))
        engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                 task=task, memory=memory, fast_dispatch=fast)
        return engine, memory, args

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_small_quantum_preempts_mid_function(self, fast):
        engine, _memory, args = self._engine(fast)
        yields = sum(1 for _ in engine.run_yielding("triad", args, quantum=50))
        assert yields > 5                      # preempted many times mid-loop
        assert engine.stats.ir_instructions > 0

    def test_yield_points_identical_across_engines(self):
        counts = {}
        for fast in (True, False):
            engine, _memory, args = self._engine(fast)
            boundaries = []
            for _ in engine.run_yielding("triad", args, quantum=100):
                boundaries.append(engine.stats.ir_instructions)
            counts[fast] = (boundaries, engine.stats.ir_instructions,
                            engine.stats.machine_ops)
        assert counts[True] == counts[False]

    def test_yield_inside_callee_lands_on_same_machine_state(self):
        """A quantum that runs out inside a callee preempts both engines at
        the same modelled machine state, with the same instructions counted
        for the callee, and both end with the same ``stats``.  The caller's
        count lags at such a yield by its block in flight: the reference
        path has counted that block up to the call, the fast path counts a
        block when it completes."""
        from repro.compiler.cache import compile_source_cached
        from repro.compiler.targets import target_for_platform
        from repro.platforms import Machine, spacemit_x60
        from repro.vm import ExecutionEngine

        source = """
        float helper(float x) {
          float acc = x;
          for (long i = 0; i < 200; i++) { acc = acc + 1.0f; }
          return acc;
        }
        float caller(float x) {
          float acc = x;
          for (long k = 0; k < 4; k++) { acc = helper(acc); }
          return acc;
        }
        """
        descriptor = spacemit_x60()
        module = compile_source_cached(source, "calls.c", descriptor,
                                       enable_vectorizer=True)
        runs, callers = {}, {}
        for fast in (True, False):
            machine = Machine(descriptor)
            task = machine.create_task("calls")
            engine = ExecutionEngine(module, machine,
                                     target_for_platform(descriptor),
                                     task=task, fast_dispatch=fast)
            per_fn = engine.stats.per_function_instructions
            points, callers[fast] = [], []
            preempted = engine.run_yielding("caller", [0.0], quantum=37)
            while True:
                try:
                    next(preempted)
                except StopIteration as stop:
                    result = stop.value
                    break
                points.append((machine.cycles, machine.instructions,
                               task.callchain(), per_fn.get("helper")))
                callers[fast].append(per_fn.get("caller"))
            runs[fast] = (result, points, machine.cycles, machine.instructions,
                          engine.stats)
        assert runs[True] == runs[False]
        result, points, _cycles, _instructions, stats = runs[True]
        assert stats.calls == 5 and stats.per_function_instructions["helper"] > 800
        assert result == 800.0
        assert sum(1 for point in points if point[2][0] == "helper") > 4
        lags = {(point[2][0], slow - fast)
                for point, fast, slow in zip(points, callers[True], callers[False])}
        (in_flight,) = {lag for name, lag in lags if name == "helper"}
        assert in_flight > 0 and {lag for name, lag in lags if name == "caller"} == {0}

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_run_yielding_matches_plain_run(self, fast):
        preempted, memory_a, args_a = self._engine(fast)
        for _ in preempted.run_yielding("triad", args_a, quantum=64):
            pass
        straight, memory_b, args_b = self._engine(fast)
        straight.run("triad", args_b)
        # Same results in memory and same modelled machine state: preemption
        # must not change what executed, only where control was handed back.
        from repro.compiler.ir import F32
        a = [memory_a.load_typed(args_a[0] + 4 * i, F32) for i in range(64)]
        b = [memory_b.load_typed(args_b[0] + 4 * i, F32) for i in range(64)]
        assert a == b
        assert preempted.machine.cycles == straight.machine.cycles
        assert preempted.machine.event_totals() == straight.machine.event_totals()

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_run_while_suspended_still_executes_internal_calls(self, fast):
        """run() on an engine whose run_yielding() generator is suspended
        must execute internal calls normally and be fuel-neutral: the parked
        run yields exactly as often as an undisturbed one."""
        from repro.compiler.cache import compile_source_cached
        from repro.platforms import spacemit_x60
        from repro.vm import ExecutionEngine

        source = """
        float helper(float x) { return x * 2.0f; }
        float caller(float x) { return helper(x) + 1.0f; }
        float looper(float x, long n) {
          float acc = x;
          for (long i = 0; i < n; i++) { acc = acc + 1.0f; }
          return acc;
        }
        """
        module = compile_source_cached(source, "reentrant.c", spacemit_x60(),
                                       enable_vectorizer=True)
        undisturbed = sum(1 for _ in ExecutionEngine(module, fast_dispatch=fast)
                          .run_yielding("looper", [0.0, 500], quantum=50))
        engine = ExecutionEngine(module, fast_dispatch=fast)
        suspended = engine.run_yielding("looper", [0.0, 500], quantum=50)
        next(suspended)                       # leave it parked mid-loop
        assert engine.run("caller", [3.0]) == 7.0
        remaining = sum(1 for _ in suspended)
        assert 1 + remaining == undisturbed > 1
        assert engine.run("caller", [5.0]) == 11.0

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_run_from_external_handler_is_fuel_neutral(self, fast):
        """run() re-entered mid-quantum (from an external handler) must not
        spend or reset the running run_yielding()'s fuel."""
        from repro.compiler.cache import compile_source_cached
        from repro.platforms import spacemit_x60
        from repro.vm import ExecutionEngine

        source = """
        float helper(float x) { return x * 2.0f; }
        float looper(float x, long n) {
          float acc = x;
          for (long i = 0; i < n; i++) { acc = fabsf(acc) + 1.0f; }
          return acc;
        }
        """
        module = compile_source_cached(source, "nested.c", spacemit_x60(),
                                       enable_vectorizer=True)

        class Reentrant:
            def entry(self, name):
                return self.fabsf if name == "fabsf" else None

            def fabsf(self, value):
                assert engine.run("helper", [3.0]) == 6.0
                return abs(value)

        undisturbed = sum(1 for _ in ExecutionEngine(module, fast_dispatch=fast)
                          .run_yielding("looper", [0.0, 500], quantum=50))
        engine = ExecutionEngine(module, external_handlers=[Reentrant()],
                                 fast_dispatch=fast)
        nested = sum(1 for _ in engine.run_yielding("looper", [0.0, 500],
                                                    quantum=50))
        assert nested == undisturbed > 1

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_validation_is_eager_not_deferred_to_first_next(self, fast):
        engine, _memory, args = self._engine(fast)
        # All of these raise at the call site -- a scheduler must never be
        # handed a generator that detonates on its first next().
        with pytest.raises(ValueError, match="quantum"):
            engine.run_yielding("triad", args, quantum=0)
        with pytest.raises(KeyError):
            engine.run_yielding("nosuch", args)
        with pytest.raises(ValueError, match="arguments"):
            engine.run_yielding("triad", args[:-1])
