"""Interpreter semantics fixes and fast-vs-slow dispatch equivalence.

Covers the unsigned division/remainder semantics, libm NaN behaviour of
``fminf``/``fmaxf``, zero-count handling in the group-sample reconciliation,
and -- the load-bearing property of the fast-dispatch engine -- that the
predecoded/batched execution path produces bit-identical PMU state (counter
values, multiplex times, sample counts and sample contents) to the reference
instruction-at-a-time interpreter.
"""

import math
from dataclasses import replace

import pytest

from repro.compiler.frontend import compile_source
from repro.compiler.ir import F32, F64, I32, I64, FunctionType, IRBuilder, Module
from repro.compiler.targets import target_for_platform
from repro.compiler.transforms import build_roofline_pipeline
from repro.cpu.events import HwEvent
from repro.kernel.perf_event import PerfEventAttr, ReadFormat, SampleType
from repro.kernel.ring_buffer import SampleRecord
from repro.miniperf.correction import reconcile_group_samples
from repro.platforms import Machine, intel_i5_1135g7, spacemit_x60
from repro.runtime import RooflineRuntime
from repro.vm import ExecutionEngine, Memory
from repro.vm.engine import _BUILTIN_MATH, ExternalCallError
from repro.workloads import (
    DOT_PRODUCT_SOURCE,
    MATMUL_TILED_SOURCE,
    dot_args_builder,
    matmul_args_builder,
)


def _binop_module(opcode, type_):
    module = Module("m")
    function = module.create_function("f", FunctionType(type_, [type_, type_]),
                                      ["a", "b"])
    builder = IRBuilder(function.add_block("entry"))
    builder.ret(builder.binary(opcode, function.args[0], function.args[1]))
    return module


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
class TestUnsignedDivRem:
    """udiv/urem must operate on the unsigned (masked) representation."""

    def _run(self, opcode, a, b, fast, type_=I32):
        module = _binop_module(opcode, type_)
        return ExecutionEngine(module, fast_dispatch=fast).run("f", [a, b])

    def test_udiv_negative_representation_dividend(self, fast):
        # -8 as i32 is 0xFFFFFFF8; unsigned division by 2 gives 0x7FFFFFFC.
        assert self._run("udiv", -8, 2, fast) == 0xFFFFFFF8 // 2

    def test_urem_negative_representation_dividend(self, fast):
        assert self._run("urem", -8, 3, fast) == 0xFFFFFFF8 % 3

    def test_udiv_negative_representation_divisor(self, fast):
        # 10 / 0xFFFFFFFF == 0 in unsigned arithmetic (not -10 as the signed
        # reuse used to produce).
        assert self._run("udiv", 10, -1, fast) == 0

    def test_urem_negative_representation_divisor(self, fast):
        assert self._run("urem", 10, -1, fast) == 10

    def test_udiv_urem_by_zero(self, fast):
        assert self._run("udiv", 7, 0, fast) == 0
        assert self._run("urem", 7, 0, fast) == 0

    def test_udiv_i64_result_wraps_to_signed_representation(self, fast):
        # UINT64_MAX / 1 is UINT64_MAX, represented as -1 in the engine.
        assert self._run("udiv", -1, 1, fast, type_=I64) == -1

    def test_signed_div_rem_unchanged(self, fast):
        assert self._run("sdiv", -8, 3, fast) == -2
        assert self._run("srem", -8, 3, fast) == -2
        assert self._run("sdiv", -8, 2, fast) == -4
        assert self._run("sdiv", 7, 0, fast) == 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
class TestFloatSemantics:
    """IEEE-754 corner cases shared by both dispatch paths."""

    def _run_binop(self, opcode, a, b, fast):
        module = _binop_module(opcode, F32)
        return ExecutionEngine(module, fast_dispatch=fast).run("f", [a, b])

    def test_fdiv_by_zero_is_signed_infinity(self, fast):
        assert self._run_binop("fdiv", 1.0, 0.0, fast) == float("inf")
        assert self._run_binop("fdiv", -1.0, 0.0, fast) == float("-inf")

    def test_fdiv_zero_over_zero_is_nan(self, fast):
        assert math.isnan(self._run_binop("fdiv", 0.0, 0.0, fast))
        assert math.isnan(self._run_binop("fdiv", float("nan"), 0.0, fast))

    def test_fcmp_one_is_ordered(self, fast):
        # "one" is ordered-AND-unequal: false whenever an operand is NaN.
        module = Module("m")
        function = module.create_function("f", FunctionType(I32, [F32, F32]),
                                          ["a", "b"])
        builder = IRBuilder(function.add_block("entry"))
        compare = builder.fcmp("one", function.args[0], function.args[1])
        builder.ret(builder.cast("zext", compare, I32))
        engine = ExecutionEngine(module, fast_dispatch=fast)
        nan = float("nan")
        assert engine.run("f", [nan, 1.0]) == 0
        assert engine.run("f", [nan, nan]) == 0
        assert engine.run("f", [1.0, 2.0]) == 1
        assert engine.run("f", [1.0, 1.0]) == 0


def test_mid_block_raise_matches_across_paths():
    """An instruction that raises after others in its block raises the same
    exception on both paths; the state left behind is not compared (see the
    :class:`ExecutionEngine` docstring)."""
    module = Module("m")
    function = module.create_function("f", FunctionType(F32, [I64, I64, F64]),
                                      ["a", "b", "x"])
    builder = IRBuilder(function.add_block("entry"))
    total = builder.add(function.args[0], function.args[1])
    builder.mul(total, function.args[1])
    builder.ret(builder.cast("fptrunc", function.args[2], F32))
    descriptor = spacemit_x60()
    raised = []
    for fast in (True, False):
        engine = ExecutionEngine(module, Machine(descriptor),
                                 target_for_platform(descriptor),
                                 fast_dispatch=fast)
        with pytest.raises(Exception) as info:
            engine.run("f", [1, 2, 1e300])
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is OverflowError


class TestLibmMinMax:
    """fminf/fmaxf follow libm: a NaN operand loses to the non-NaN one."""

    def test_nan_loses(self):
        nan = float("nan")
        assert _BUILTIN_MATH["fminf"](nan, 2.0) == 2.0
        assert _BUILTIN_MATH["fminf"](2.0, nan) == 2.0
        assert _BUILTIN_MATH["fmaxf"](nan, 2.0) == 2.0
        assert _BUILTIN_MATH["fmaxf"](2.0, nan) == 2.0

    def test_both_nan_is_nan(self):
        nan = float("nan")
        assert math.isnan(_BUILTIN_MATH["fminf"](nan, nan))
        assert math.isnan(_BUILTIN_MATH["fmaxf"](nan, nan))

    def test_ordered_operands(self):
        assert _BUILTIN_MATH["fminf"](1.0, 2.0) == 1.0
        assert _BUILTIN_MATH["fmaxf"](1.0, 2.0) == 2.0
        assert _BUILTIN_MATH["fminf"](-0.5, 3.0) == -0.5

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
    def test_engine_external_dispatch(self, fast):
        module = Module("m")
        function = module.create_function("f", FunctionType(F32, [F32, F32]),
                                          ["a", "b"])
        module.declare_function("fminf", FunctionType(F32, [F32, F32]))
        builder = IRBuilder(function.add_block("entry"))
        result = builder.call("fminf", [function.args[0], function.args[1]], F32)
        builder.ret(result)
        engine = ExecutionEngine(module, fast_dispatch=fast)
        assert engine.run("f", [float("nan"), 3.5]) == 3.5


def _sample(leader, cycles):
    return SampleRecord(ip=0, pid=1, tid=1, time=0, period=100,
                        event="u_mode_cycle",
                        group_values={"u_mode_cycle": leader, "cycles": cycles})


class TestReconcileGroupSamples:
    def test_zero_zero_counts_as_zero_divergence(self):
        stats = reconcile_group_samples([_sample(0, 0), _sample(100, 100)],
                                        "u_mode_cycle")
        assert stats["samples"] == 2
        assert stats["mean_divergence"] == 0.0
        assert stats["outlier_fraction"] == 0.0

    def test_zero_vs_nonzero_counts_as_full_divergence(self):
        stats = reconcile_group_samples([_sample(0, 50)], "u_mode_cycle")
        assert stats["samples"] == 1
        assert stats["mean_divergence"] == 1.0
        assert stats["outlier_fraction"] == 1.0

    def test_missing_values_are_still_skipped(self):
        record = SampleRecord(ip=0, pid=1, tid=1, time=0, period=1, event="x",
                              group_values={})
        stats = reconcile_group_samples([record], "u_mode_cycle")
        assert stats["samples"] == 0

    def test_divergent_samples_flagged(self):
        stats = reconcile_group_samples([_sample(80, 100)], "u_mode_cycle",
                                        tolerance=0.05)
        assert stats["samples"] == 1
        assert stats["mean_divergence"] == pytest.approx(0.2)
        assert stats["outlier_fraction"] == 1.0


def _compiled(source, descriptor, filename):
    module = compile_source(source, filename)
    build_roofline_pipeline(vector_width=descriptor.vector.sp_lanes()).run(module)
    return module


class TestFastSlowPmuEquivalence:
    """The fast engine must be indistinguishable from the reference one."""

    def _run_sampled(self, fast):
        """Sampled run on the X60 via the paper's workaround group."""
        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        task = machine.create_task("dot")
        module = _compiled(DOT_PRODUCT_SOURCE, descriptor, "dot.c")
        memory = Memory()
        args = dot_args_builder(1024)(memory)
        attr = PerfEventAttr(
            event=HwEvent.U_MODE_CYCLE,
            sample_period=400,
            sample_type=frozenset({SampleType.IP, SampleType.TIME,
                                   SampleType.CALLCHAIN, SampleType.READ,
                                   SampleType.PERIOD}),
            read_format=frozenset({ReadFormat.GROUP}),
        )
        fd = machine.perf.perf_event_open(attr, task)
        machine.perf.perf_event_open(PerfEventAttr(event=HwEvent.CYCLES),
                                     task, group_fd=fd)
        ring = machine.perf.mmap(fd)
        machine.perf.enable(fd)
        runtime = RooflineRuntime(module, machine, instrumented=False)
        engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                 task=task, memory=memory,
                                 external_handlers=[runtime], fast_dispatch=fast)
        result = engine.run("dot", args)
        machine.perf.disable(fd)
        read = machine.perf.read(fd)
        return (result, read, ring.drain(), machine.event_totals(),
                machine.cycles, machine.instructions, engine.stats)

    def test_sampled_run_bit_identical(self):
        fast = self._run_sampled(True)
        slow = self._run_sampled(False)
        assert fast[0] == slow[0]
        # Counter values and multiplex times.
        assert fast[1].value == slow[1].value
        assert fast[1].time_enabled == slow[1].time_enabled
        assert fast[1].time_running == slow[1].time_running
        assert fast[1].group == slow[1].group
        # Sample counts AND full sample contents (ip, time, callchain, group
        # readouts) -- overflow interrupts must fire at the same ops.
        assert len(fast[2]) == len(slow[2])
        assert len(fast[2]) > 0
        for fast_sample, slow_sample in zip(fast[2], slow[2]):
            # pids are allocated from a process-global counter, so the two
            # runs legitimately differ there; everything else must match.
            assert replace(fast_sample, pid=0, tid=0) == \
                replace(slow_sample, pid=0, tid=0)
        assert fast[3] == slow[3]
        assert fast[4] == slow[4] and fast[5] == slow[5]
        assert fast[6] == slow[6]

    def _run_counting(self, fast):
        """Counting-only run (the batch-aggregated machine path)."""
        descriptor = intel_i5_1135g7()
        machine = Machine(descriptor)
        task = machine.create_task("matmul")
        module = _compiled(MATMUL_TILED_SOURCE, descriptor, "matmul.c")
        memory = Memory()
        args = matmul_args_builder(10)(memory)
        fds = [machine.perf.perf_event_open(PerfEventAttr(event=event), task)
               for event in (HwEvent.CYCLES, HwEvent.INSTRUCTIONS,
                             HwEvent.BRANCH_INSTRUCTIONS)]
        for fd in fds:
            machine.perf.enable(fd)
        runtime = RooflineRuntime(module, machine, instrumented=False)
        engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                 task=task, memory=memory,
                                 external_handlers=[runtime], fast_dispatch=fast)
        engine.run("matmul_tiled", args)
        for fd in fds:
            machine.perf.disable(fd)
        reads = [machine.perf.read(fd) for fd in fds]
        return ([(r.value, r.time_enabled, r.time_running) for r in reads],
                machine.event_totals(), machine.cycles, engine.stats)

    def test_counting_run_bit_identical(self):
        assert self._run_counting(True) == self._run_counting(False)

    CALLS_SOURCE = """
    float scale(float* x, long i, float s) { return x[i] * s; }
    float dot_scaled(float* x, float* y, long n) {
      float acc = 0.0f;
      for (long i = 0; i < n; i++) {
        acc = acc + scale(x, i, 2.0f) * y[i];
      }
      return sqrtf(fabsf(acc));
    }
    """

    def _run_calls(self, fast):
        """run() of a kernel that calls an internal and an external function
        on every iteration (the call machinery both paths share)."""
        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        task = machine.create_task("calls")
        module = _compiled(self.CALLS_SOURCE, descriptor, "calls.c")
        memory = Memory()
        n = 96
        x = memory.alloc_float_array([0.25 * i for i in range(n)])
        y = memory.alloc_float_array([1.0 - 0.01 * i for i in range(n)])
        runtime = RooflineRuntime(module, machine, instrumented=False)
        engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                 task=task, memory=memory,
                                 external_handlers=[runtime], fast_dispatch=fast)
        result = engine.run("dot_scaled", [x, y, n])
        return result, engine.stats, machine.cycles

    def test_run_with_calls_bit_identical(self):
        fast = self._run_calls(True)
        slow = self._run_calls(False)
        assert fast == slow
        stats = fast[1]
        # dot_scaled, its outlined loop, and one scale() per iteration.
        assert stats.calls == 2 + 96 and stats.external_calls >= 2
        assert stats.per_function_instructions["scale"] > 0

    def _run_multiplexed(self, fast):
        """More events than generic counters, with a rotation mid-workload."""
        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        task = machine.create_task("dot")
        module = _compiled(DOT_PRODUCT_SOURCE, descriptor, "dot.c")
        events = [HwEvent.CACHE_REFERENCES, HwEvent.CACHE_MISSES,
                  HwEvent.BRANCH_INSTRUCTIONS, HwEvent.BRANCH_MISSES,
                  HwEvent.L1D_LOADS, HwEvent.L1D_LOAD_MISSES,
                  HwEvent.L1D_STORES, HwEvent.LOADS_RETIRED]
        fds = [machine.perf.perf_event_open(PerfEventAttr(event=event), task)
               for event in events]
        for fd in fds:
            machine.perf.enable(fd)

        def run_once(n):
            memory = Memory()
            args = dot_args_builder(n)(memory)
            runtime = RooflineRuntime(module, machine, instrumented=False)
            engine = ExecutionEngine(module, machine,
                                     target_for_platform(descriptor),
                                     task=task, memory=memory,
                                     external_handlers=[runtime],
                                     fast_dispatch=fast)
            engine.run("dot", args)

        run_once(256)
        machine.perf.rotate()
        run_once(256)
        for fd in fds:
            machine.perf.disable(fd)
        reads = [machine.perf.read(fd) for fd in fds]
        # At least one event must actually have been multiplexed out.
        assert any(r.time_running < r.time_enabled for r in reads)
        return [(r.value, r.time_enabled, r.time_running, r.scaled_value)
                for r in reads]

    def test_multiplexed_run_bit_identical(self):
        assert self._run_multiplexed(True) == self._run_multiplexed(False)


class _AlwaysObservingRuntime(RooflineRuntime):
    """The stock runtime, but every entry point claims to read the machine,
    so the engine flushes before every one of them."""

    def observes_machine(self, name):
        return True


class TestFlushElision:
    """Call sites that do not observe the machine skip the flush; nothing
    observable may change."""

    def _roofline(self, monkeypatch, runtime_class):
        import repro.roofline.runner as runner_module
        from repro.roofline.runner import RooflineRunner

        batches = []
        original = Machine.execute_batch

        def counting(machine, ops, task=None, accesses=None):
            batches.append(len(ops))
            return original(machine, ops, task, accesses)

        monkeypatch.setattr(runner_module, "RooflineRuntime", runtime_class)
        monkeypatch.setattr(Machine, "execute_batch", counting)
        result = RooflineRunner(spacemit_x60()).run_source(
            MATMUL_TILED_SOURCE, "matmul_tiled", matmul_args_builder(12),
            filename="matmul.c")
        monkeypatch.undo()
        return (result.to_dict(), result.baseline_machine_stats,
                result.instrumented_machine_stats), len(batches)

    def test_roofline_identical_with_and_without_elision(self, monkeypatch):
        elided, elided_batches = self._roofline(monkeypatch, RooflineRuntime)
        flushed, flushed_batches = self._roofline(monkeypatch,
                                                  _AlwaysObservingRuntime)
        # Both phases: loop records (cycles and instructions between the
        # begin/end notifications) and each phase's machine stats.
        assert elided == flushed
        assert elided[0]["loops"] and elided[1]["cycles"] > 0
        assert elided_batches * 4 < flushed_batches

    def test_handler_without_the_contract_sees_every_prior_op_retired(self):
        """A handler that does not declare ``observes_machine`` gets the
        flush: the clock it reads matches the reference interpreter's,
        which retires op by op.  It claims a builtin name, so builtin
        purity must not leak to it."""
        source = """
        float probe_loop(float* x, long n) {
          float acc = 0.0f;
          for (long i = 0; i < n; i++) { acc = acc + fabsf(x[i]); }
          return acc;
        }
        """
        descriptor = spacemit_x60()
        module = _compiled(source, descriptor, "probe.c")

        class ClockProbe:
            def __init__(self, machine):
                self.machine = machine
                self.seen = []

            def entry(self, name):
                return self.fabsf if name == "fabsf" else None

            def fabsf(self, value):
                self.seen.append((self.machine.clock(),
                                  self.machine.instructions))
                return abs(value)

        def run(fast):
            machine = Machine(descriptor)
            memory = Memory()
            x = memory.alloc_float_array([0.5 - 0.25 * i for i in range(40)])
            probe = ClockProbe(machine)
            engine = ExecutionEngine(module, machine,
                                     target_for_platform(descriptor),
                                     task=machine.create_task("probe"),
                                     memory=memory,
                                     external_handlers=[probe, RooflineRuntime(
                                         module, machine, instrumented=False)],
                                     fast_dispatch=fast)
            return engine.run("probe_loop", [x, 40]), probe.seen

        fast, reference = run(True), run(False)
        assert fast == reference
        assert len(fast[1]) == 40


class TestUnresolvedExternal:
    """A call nothing resolves (no handler entry, no builtin) predecodes
    fine and raises only when executed, the same way on both paths."""

    SOURCE = """
    float guarded(float* x, long n, long take) {
      float acc = 0.0f;
      for (long i = 0; i < n; i++) {
        acc = acc + x[i];
        if (i == take) { acc = acc + expf(x[i]); }
      }
      return acc;
    }
    """

    def _run(self, fast, take):
        descriptor = spacemit_x60()
        machine = Machine(descriptor)
        module = _compiled(self.SOURCE, descriptor, "guarded.c")
        memory = Memory()
        x = memory.alloc_float_array([0.5 * i for i in range(16)])
        engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                 task=machine.create_task("guarded"),
                                 memory=memory,
                                 external_handlers=[RooflineRuntime(
                                     module, machine, instrumented=True)],
                                 fast_dispatch=fast)
        try:
            outcome = engine.run("guarded", [x, 16, take])
        except ExternalCallError as exc:
            outcome = str(exc)
        return outcome, engine.stats.external_calls

    def test_untaken_branch_runs_and_taken_branch_raises_alike(self, monkeypatch):
        monkeypatch.delitem(_BUILTIN_MATH, "expf")
        untaken = self._run(True, -1)
        assert untaken == self._run(False, -1)
        assert untaken[0] == sum(0.5 * i for i in range(16))
        assert untaken[1] > 16          # the runtime's block_exec calls
        taken = self._run(True, 5)
        assert taken == self._run(False, 5)
        assert taken[0] == "no handler registered for external function @expf"
        assert 0 < taken[1] < untaken[1]
