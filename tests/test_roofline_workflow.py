"""Tests for the roofline model and the two-phase runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.platforms import intel_i5_1135g7, sifive_u74, spacemit_x60
from repro.roofline import (
    MachineRoofs,
    RooflineModel,
    RooflinePoint,
    RooflineRunner,
    measure_roofs,
    render_ascii_roofline,
    render_svg_roofline,
    theoretical_roofs,
)
from repro.workloads import (
    DOT_PRODUCT_SOURCE,
    dot_args_builder,
    MATMUL_TILED_SOURCE,
    matmul_args_builder,
)
from repro.workloads.kernels import analytic_matmul_counts


class TestRoofs:
    def test_x60_theoretical_roofs_match_paper_arithmetic(self):
        roofs = theoretical_roofs(spacemit_x60())
        # 2 IPC x 8 SP lanes x 1.6 GHz = 25.6 GFLOP/s.
        assert roofs.peak_gflops == pytest.approx(25.6)
        # 3.16 bytes/cycle x 1.6 GHz = 5.06 GB/s (the paper rounds to ~4.7).
        assert roofs.dram_bandwidth == pytest.approx(5.056, rel=1e-3)
        assert roofs.ridge_point() == pytest.approx(25.6 / 5.056, rel=1e-3)

    def test_attainable_is_min_of_roofs(self):
        roofs = MachineRoofs("toy", peak_gflops=10.0, bandwidth_gbps={"DRAM": 2.0})
        assert roofs.attainable_gflops(1.0) == 2.0
        assert roofs.attainable_gflops(100.0) == 10.0
        assert roofs.attainable_gflops(0.0) == 0.0

    def test_measured_roofs_do_not_exceed_theoretical_by_much(self):
        descriptor = spacemit_x60()
        measured = measure_roofs(descriptor, elements=2048)
        theoretical = theoretical_roofs(descriptor)
        assert measured.peak_gflops <= theoretical.peak_gflops * 1.2
        assert measured.dram_bandwidth <= theoretical.dram_bandwidth * 1.5
        assert measured.peak_gflops > 0
        assert measured.dram_bandwidth > 0

    @given(st.floats(min_value=0.001, max_value=1000.0))
    @settings(max_examples=50, deadline=None)
    def test_attainable_monotone_in_intensity(self, intensity):
        roofs = theoretical_roofs(spacemit_x60())
        lower = roofs.attainable_gflops(intensity)
        higher = roofs.attainable_gflops(intensity * 2)
        assert higher >= lower - 1e-9
        assert lower <= roofs.peak_gflops + 1e-9


class TestRooflineModel:
    def test_bound_classification(self):
        roofs = MachineRoofs("toy", peak_gflops=10.0, bandwidth_gbps={"DRAM": 5.0})
        model = RooflineModel(roofs)
        memory_bound = RooflinePoint("low-AI", arithmetic_intensity=0.5, gflops=1.0)
        compute_bound = RooflinePoint("high-AI", arithmetic_intensity=50.0, gflops=8.0)
        model.add_point(memory_bound)
        model.add_point(compute_bound)
        assert model.bound_of(memory_bound) == "memory-bound"
        assert model.bound_of(compute_bound) == "compute-bound"
        assert model.efficiency_of(memory_bound) == pytest.approx(1.0 / 2.5)
        assert "memory-bound" in model.summary()

    def test_plots_render(self):
        roofs = theoretical_roofs(spacemit_x60())
        model = RooflineModel(roofs)
        model.add_point(RooflinePoint("kernel", 0.25, 1.58))
        ascii_plot = render_ascii_roofline(model)
        assert "GFLOP/s" in ascii_plot and "kernel" in ascii_plot
        svg = render_svg_roofline(model)
        assert svg.startswith("<svg") and "kernel" in svg


class TestTwoPhaseRunner:
    def test_dot_product_counts_and_overhead(self):
        descriptor = spacemit_x60()
        runner = RooflineRunner(descriptor)
        n = 256
        result = runner.run_source(DOT_PRODUCT_SOURCE, "dot", dot_args_builder(n))
        assert len(result.loops) == 1
        loop = result.loops[0]
        assert loop.fp_ops == 2 * n
        assert loop.loaded_bytes == 8 * n           # two f32 loads per iteration
        assert loop.arithmetic_intensity == pytest.approx(0.25)
        assert loop.baseline_cycles > 0
        # Instrumentation adds overhead; two-phase keeps it out of the timing.
        assert loop.instrumentation_overhead > 1.0
        assert result.kernel_gflops > 0

    def test_matmul_fp_ops_match_analytic_count(self):
        descriptor = spacemit_x60()
        runner = RooflineRunner(descriptor)
        n = 12
        result = runner.run_source(MATMUL_TILED_SOURCE, "matmul_tiled",
                                   matmul_args_builder(n))
        total_fp = sum(loop.fp_ops for loop in result.loops)
        assert total_fp == analytic_matmul_counts(n)["fp_ops"]
        point = result.point_for_kernel()
        assert point.gflops == pytest.approx(result.kernel_gflops)
        assert 0 < point.arithmetic_intensity < 1.0

    def test_kernel_stays_below_roofs(self):
        descriptor = spacemit_x60()
        runner = RooflineRunner(descriptor)
        result = runner.run_source(DOT_PRODUCT_SOURCE, "dot", dot_args_builder(128))
        model = result.model()
        for point in model.points:
            attainable = model.attainable(point.arithmetic_intensity)
            assert point.gflops <= attainable * 1.05

    def test_vectorization_off_is_slower_on_vector_platform(self):
        descriptor = spacemit_x60()
        n = 256
        vectorized = RooflineRunner(descriptor, enable_vectorizer=True).run_source(
            DOT_PRODUCT_SOURCE, "dot", dot_args_builder(n))
        scalar = RooflineRunner(descriptor, enable_vectorizer=False).run_source(
            DOT_PRODUCT_SOURCE, "dot", dot_args_builder(n))
        assert vectorized.kernel_gflops > scalar.kernel_gflops
        # Operation counts are identical either way (IR-level counting).
        assert (sum(l.fp_ops for l in vectorized.loops)
                == sum(l.fp_ops for l in scalar.loops))

    def test_scalar_only_platform_ignores_vector_annotations(self):
        descriptor = sifive_u74()
        runner = RooflineRunner(descriptor)
        result = runner.run_source(DOT_PRODUCT_SOURCE, "dot", dot_args_builder(64))
        assert result.kernel_gflops > 0
