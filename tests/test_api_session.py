"""Tests for the unified profiling-session API (repro.api)."""

import json

import pytest

from repro import telemetry
from repro.api import (
    CompiledKernelWorkload,
    Comparison,
    ProfileSpec,
    Run,
    Session,
    SyntheticTraceWorkload,
    Workload,
)
from repro.cpu.events import HwEvent
from repro.miniperf.groups import SamplingNotSupportedError
from repro.platforms import intel_i5_1135g7, sifive_u74, spacemit_x60
from repro.workloads import registry
from repro.workloads.kernels import DOT_PRODUCT_SOURCE, dot_args_builder
from repro.workloads.registry import micro_calltree_workload
from repro.workloads.synthetic import (
    InstructionMix,
    SyntheticFunction,
    SyntheticWorkload,
)

FAST_SPEC = ProfileSpec(sample_period=2_000)


class TestProfileSpec:
    def test_defaults(self):
        spec = ProfileSpec()
        assert spec.events == (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)
        assert spec.wants_sampling and not spec.wants_stat
        assert not spec.wants_roofline

    def test_with_roofline_appends_once(self):
        spec = ProfileSpec().with_roofline()
        assert spec.analyses == ("hotspots", "flamegraph", "roofline")
        assert spec.with_roofline() is spec

    def test_counting_mode(self):
        spec = ProfileSpec().counting()
        assert spec.wants_stat and not spec.wants_sampling

    def test_immutable_derivation(self):
        base = ProfileSpec()
        derived = base.with_sample_period(500).without_vendor_driver()
        assert base.sample_period == 20_000 and base.vendor_driver is None
        assert derived.sample_period == 500 and derived.vendor_driver is False

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError):
            ProfileSpec(analyses=("hotspots", "nonsense"))

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ProfileSpec(sample_period=0)

    def test_to_dict_round_trips_through_json(self):
        spec = ProfileSpec().with_roofline()
        assert json.loads(json.dumps(spec.to_dict()))["analyses"][-1] == "roofline"


class TestRegistry:
    def test_known_names_present(self):
        names = set(registry)
        assert {"sqlite3-like", "matmul-tiled", "micro-calltree",
                "dot-product"} <= names

    def test_getitem_builds_workload_protocol_instances(self):
        for name in registry:
            workload = registry[name]
            assert isinstance(workload, Workload)
            assert workload.kind in ("synthetic", "kernel",
                                     "parallel-synthetic", "parallel-kernel")

    def test_create_forwards_parameters(self):
        small = registry.create("matmul-tiled", n=8)
        assert small.supports_roofline
        scaled = registry.create("micro-calltree", scale=3)
        assert scaled.tree.function("hot_leaf").ops_per_call == 2700

    def test_params_reflect_factory_signatures(self):
        assert "scale" in registry.params("sqlite3-like")
        assert "n" in registry.params("matmul-tiled")

    def test_unknown_name_raises_keyerror_with_choices(self):
        with pytest.raises(KeyError, match="sqlite3-like"):
            registry.create("no-such-workload")

    def test_describe_lists_everything(self):
        table = registry.describe()
        for name in registry:
            assert name in table

    def test_describe_is_byte_identical_to_building_every_workload(self):
        """The kinds recorded at registration are the kinds the workloads
        have: a registry without them, which builds each workload to read
        its kind, prints the same table."""
        from repro.workloads.registry import WorkloadRegistry
        built = WorkloadRegistry()
        for name in registry:
            built.register(name, lambda name=name: registry.create(name),
                           registry.description(name))
        assert built.describe() == registry.describe()

    def test_reregistering_without_a_kind_reads_the_built_workload(self):
        from repro.workloads.registry import WorkloadRegistry
        fresh = WorkloadRegistry()
        fresh.register("sqlite3-like", lambda: registry.create("memset", n=8))
        row = next(line for line in fresh.describe().splitlines()
                   if line.startswith("sqlite3-like "))
        assert row.split()[1] == "kernel"

    def test_register_before_first_lookup_overrides_builtin(self):
        from repro.workloads.registry import WorkloadRegistry
        fresh = WorkloadRegistry()
        sentinel = SyntheticTraceWorkload(tree=micro_calltree_workload())
        fresh.register("sqlite3-like", lambda: sentinel, "mine")
        assert fresh["sqlite3-like"] is sentinel
        assert fresh.description("sqlite3-like") == "mine"
        # The builtins still filled in around it.
        assert "matmul-tiled" in fresh


class TestSessionSynthetic:
    def test_run_produces_hotspots_and_flames(self):
        session = Session("SpacemiT X60")
        run = session.run(registry["micro-calltree"], FAST_SPEC)
        assert run.platform == "SpacemiT X60"
        assert run.workload == "micro-calltree"
        assert run.recording is not None and run.recording.sample_count > 0
        assert run.hotspots is not None and run.hotspots.rows
        assert run.flame_cycles is not None
        assert run.flame_instructions is not None
        assert run.flame_cycles.find("hot_leaf") is not None
        assert not run.errors

    def test_platform_resolved_by_name_or_descriptor(self):
        by_name = Session("x60")
        by_descriptor = Session(spacemit_x60())
        assert by_name.descriptor.name == by_descriptor.descriptor.name

    def test_machine_is_lazy_and_cached(self):
        session = Session(spacemit_x60())
        assert not session._machines
        first = session.machine()
        assert session.machine() is first
        stock = session.machine(vendor_driver=False)
        assert stock is not first

    def test_counting_spec_runs_stat_only(self):
        run = Session(sifive_u74()).run("micro-calltree", ProfileSpec().counting())
        assert run.stat is not None
        assert run.stat.count(HwEvent.CYCLES) > 0
        assert run.recording is None and run.hotspots is None

    def test_sampling_on_u74_degrades_into_errors(self):
        run = Session(sifive_u74()).run("micro-calltree", FAST_SPEC)
        assert run.recording is None
        assert "sampling" in run.errors
        assert "overflow" in run.errors["sampling"]
        assert isinstance(run.failures["sampling"], SamplingNotSupportedError)
        # ...and still exports.
        assert "errors" in run.to_dict()

    def test_seed_controls_determinism(self):
        session = Session(spacemit_x60())
        first = session.run("micro-calltree", FAST_SPEC.with_seed(7))
        second = Session(spacemit_x60()).run("micro-calltree", FAST_SPEC.with_seed(7))
        assert [r.function for r in first.hotspots.rows] == \
            [r.function for r in second.hotspots.rows]

    def test_report_and_exports(self):
        run = Session(spacemit_x60()).run("micro-calltree", FAST_SPEC)
        text = run.report()
        assert "micro-calltree on SpacemiT X60" in text
        assert "miniperf on SpacemiT X60" in text
        assert "Hotspots" in text
        payload = json.loads(run.to_json())
        assert payload["platform"] == "SpacemiT X60"
        assert payload["hotspots"]["rows"]
        assert payload["flame_cycles"]["name"] == "all"
        svg = run.flamegraph_svg()
        assert svg.startswith("<svg") and "hot_leaf" in svg

    def test_flame_rejects_unknown_metric(self):
        run = Session(spacemit_x60()).run("micro-calltree", FAST_SPEC)
        with pytest.raises(ValueError, match="metric"):
            run.flame("Instructions")


class TestSessionKernels:
    def test_kernel_workload_profiles_under_pmu(self):
        """A compiled kernel goes through the same PMU path as trace replays."""
        session = Session(spacemit_x60())
        run = session.run(registry.create("dot-product", n=512),
                          ProfileSpec(sample_period=1_000))
        assert run.recording is not None and run.recording.sample_count > 0
        assert run.hotspots is not None
        assert run.hotspots.rows[0].function == "dot"
        assert run.flame_cycles.find("dot") is not None

    def test_kernel_roofline_from_same_run_type(self):
        run = Session(spacemit_x60()).run(
            registry.create("matmul-tiled", n=8),
            ProfileSpec(analyses=("roofline",)))
        assert isinstance(run, Run)
        assert run.roofline is not None
        assert run.roofline.kernel_gflops > 0
        counts = sum(l.fp_ops for l in run.roofline.loops)
        assert counts == 2 * 8 ** 3
        model = run.roofline_model()
        assert any(p.name == "matmul_tiled" for p in model.points)
        assert run.roofline_svg().startswith("<svg")
        assert "Roofline" in run.report()

    def test_roofline_on_synthetic_workload_reports_error(self):
        run = Session(spacemit_x60()).run(
            "micro-calltree", ProfileSpec(analyses=("roofline",)))
        assert run.roofline is None
        assert "roofline" in run.errors

    def test_vectorizer_toggle_respected(self):
        spec = ProfileSpec(analyses=("roofline",))
        on = Session(spacemit_x60()).run(
            registry.create("dot-product", n=512), spec)
        off = Session(spacemit_x60()).run(
            registry.create("dot-product", n=512), spec.without_vectorizer())
        assert on.roofline.kernel_gflops > off.roofline.kernel_gflops

    def test_vendor_driver_spec_reaches_roofline_machines(self, monkeypatch):
        seen = []
        from repro.platforms import machine as machine_module
        original = machine_module.Machine.__init__

        def spy(self, descriptor, vendor_driver=True):
            seen.append(vendor_driver)
            original(self, descriptor, vendor_driver=vendor_driver)

        monkeypatch.setattr(machine_module.Machine, "__init__", spy)
        Session(spacemit_x60()).run(
            registry.create("dot-product", n=128),
            ProfileSpec(analyses=("roofline",)).without_vendor_driver())
        # Session machine + the two roofline phase machines, all stock.
        assert seen and all(flag is False for flag in seen)

    def test_reference_spec_reaches_roofline_engines(self, monkeypatch):
        seen = []
        from repro.vm import engine as engine_module
        original = engine_module.ExecutionEngine.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen.append(self.fast_dispatch)

        monkeypatch.setattr(engine_module.ExecutionEngine, "__init__", spy)
        Session(spacemit_x60()).run(
            registry.create("dot-product", n=128),
            ProfileSpec(analyses=("roofline",)).without_fast_paths())
        # Both roofline phases run the reference interpreter.
        assert seen == [False, False]


class TestCompare:
    def test_compare_two_platforms_with_flame_diff(self):
        comparison = Session.compare(
            [spacemit_x60(), intel_i5_1135g7()], "micro-calltree", FAST_SPEC)
        assert isinstance(comparison, Comparison)
        assert [run.platform for run in comparison.runs] == \
            ["SpacemiT X60", "Intel Core i5-1135G7"]
        assert "Intel Core i5-1135G7" in comparison.flame_diffs
        diffs = {d.function for d in comparison.flame_diffs["Intel Core i5-1135G7"]}
        assert "hot_leaf" in diffs
        report = comparison.report()
        assert "flame-graph diff" in report
        assert "SpacemiT X60" in report and "Intel Core i5-1135G7" in report

    def test_compare_includes_unsampleable_platform_gracefully(self):
        comparison = Session.compare(
            ["SpacemiT X60", "SiFive U74"], "micro-calltree", FAST_SPEC)
        u74 = comparison.run_for("SiFive U74")
        assert u74 is not None and "sampling" in u74.errors
        assert "unavailable" in comparison.report()

    def test_compare_roofline_runs(self):
        comparison = Session.compare(
            [spacemit_x60(), intel_i5_1135g7()],
            registry.create("matmul-tiled", n=8),
            ProfileSpec(analyses=("roofline",)))
        gflops = [run.roofline.kernel_gflops for run in comparison.runs]
        assert all(g > 0 for g in gflops)
        # The paper's central comparison: x86 achieves much more than the X60.
        assert gflops[1] > gflops[0]
        payload = json.loads(comparison.to_json())
        assert payload["summary"][0]["gflops"] == pytest.approx(gflops[0], rel=1e-3)

    def test_compare_requires_platforms(self):
        with pytest.raises(ValueError):
            Session.compare([], "micro-calltree", FAST_SPEC)


class TestLegacyShim:
    """Hand-built workload objects -- what the removed ``AnalysisWorkflow``
    facade wrapped -- profiled through Session directly."""

    def test_custom_workload_objects_accepted_directly(self):
        workload = SyntheticTraceWorkload(tree=micro_calltree_workload(scale=2))
        run = Session(spacemit_x60()).run(workload, FAST_SPEC)
        assert run.workload == "micro-calltree"
        tree = SyntheticWorkload(name="mini", entry="main")
        mix = InstructionMix(working_set_bytes=4096, locality=0.9)
        tree.add(SyntheticFunction("kernel", 4000, mix))
        tree.add(SyntheticFunction("main", 200, mix, callees=[("kernel", 1)]))
        mini = Session(spacemit_x60()).run(
            SyntheticTraceWorkload(tree=tree, auto_instruction_factor=False),
            FAST_SPEC)
        assert mini.recording is not None and mini.hotspots is not None
        assert mini.flame_cycles.find("kernel") is not None
        text = mini.report()
        assert "miniperf on SpacemiT X60" in text and "Hotspots" in text
        kernel = CompiledKernelWorkload(
            name="my-dot", source=DOT_PRODUCT_SOURCE, function="dot",
            args_builder=dot_args_builder(128))
        roofline_run = Session(spacemit_x60()).run(
            kernel, ProfileSpec(analyses=("roofline",)))
        assert roofline_run.roofline is not None
        assert roofline_run.roofline.kernel_gflops > 0
        assert "Roofline" in roofline_run.report()


PARITY_SPEC = ProfileSpec(sample_period=2_000,
                          analyses=("stat", "hotspots", "flamegraph",
                                    "roofline"))


def _traced_run(platform, cpus):
    """One run under span capture: the run, its spans and its metrics."""
    with telemetry.capture(spans=True) as captured:
        run = Session(platform).run(registry.create("dot-product", n=128),
                                    PARITY_SPEC.with_cpus(cpus))
    return run, captured


def _phase_tree(spans):
    """The run span's args and its direct children, wall-clock stripped."""
    (root,) = [span for span in spans if span["name"] == "run"]
    args = {key: value for key, value in root["args"].items() if key != "cpus"}
    return args, [(child["name"], child["args"])
                  for child in root["children"]]


class TestRunDriver:
    """Single-hart and SMP runs go through one phase loop: same spans,
    timings, run counter and error keys, whichever backend measures."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_phase_loop_is_shared(self, cpus):
        run, captured = _traced_run(spacemit_x60(), cpus)
        assert run.cpus == cpus and not run.errors
        assert _phase_tree(captured.spans) == (
            {"platform": "SpacemiT X60", "workload": "dot-product"},
            [("compile", {"analysis": "stat"}),
             ("execute", {"analysis": "stat"}),
             ("compile", {"analysis": "sampling"}),
             ("execute", {"analysis": "sampling"}),
             ("analyses", {"analysis": "sampling"}),
             ("analyses", {"analysis": "roofline"})])
        assert list(run.timings) == ["compile", "execute", "analyses"]
        runs = captured.metrics["repro_runs_total"]["series"]
        assert sum(count for _, count in runs) == 1

        u74, captured = _traced_run(sifive_u74(), cpus)
        assert list(u74.errors) == ["sampling"]
        assert list(u74.failures) == ["sampling"]
        assert isinstance(u74.failures["sampling"], SamplingNotSupportedError)
        assert list(u74.timings) == ["compile", "execute", "analyses"]
        assert u74.stat is not None and u74.roofline is not None


@pytest.mark.slow
class TestAcceptanceSqlite3:
    """The ISSUE acceptance path on the full sqlite3-shaped workload."""

    def test_one_api_profiles_both_workload_kinds(self):
        session = Session("SpacemiT X60")
        spec = ProfileSpec(sample_period=10_000)
        profile = session.run(registry["sqlite3-like"], spec)
        assert profile.hotspots.row_for("sqlite3VdbeExec") is not None
        assert profile.flame_cycles.find("patternCompare") is not None

        roofline = session.run(registry["matmul-tiled"],
                               ProfileSpec(analyses=()).with_roofline())
        assert type(roofline) is type(profile)
        assert roofline.roofline is not None
        assert roofline.roofline.kernel_gflops > 0

    def test_multi_platform_comparison_report(self):
        comparison = Session.compare(
            ["SpacemiT X60", "Intel Core i5-1135G7"], "sqlite3-like",
            ProfileSpec(sample_period=10_000))
        assert "Intel Core i5-1135G7" in comparison.flame_diffs
        diff_functions = {d.function
                          for d in comparison.flame_diffs["Intel Core i5-1135G7"]}
        assert "sqlite3VdbeExec" in diff_functions
        report = comparison.report()
        assert "flame-graph diff" in report
