"""Smoke tests for the miniperf CLI: every subcommand, multiple platforms.

All tests go through ``main(argv)`` exactly like a shell invocation.  The
tiny ``micro-calltree`` workload and small kernel sizes keep each run well
under a second.
"""

import json

import pytest

from repro.toolchain.cli import build_parser, main

#: Platforms the sampling subcommands are driven on (both can sample: the
#: X60 via the group-leader workaround, the i5 directly).
SAMPLING_PLATFORMS = ["SpacemiT X60", "Intel Core i5-1135G7"]
#: Platforms counting-mode subcommands are driven on (U74 cannot sample but
#: must still stat/identify).
ALL_PLATFORMS = SAMPLING_PLATFORMS + ["SiFive U74", "T-Head C910"]

FAST_SYNTHETIC = ["--workload", "micro-calltree", "--period", "2000"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGlobalSubcommands:
    def test_capabilities(self, capsys):
        code, out, _ = run_cli(capsys, "capabilities")
        assert code == 0
        assert "SpacemiT X60" in out and "RVV version" in out

    def test_workloads(self, capsys):
        code, out, _ = run_cli(capsys, "workloads")
        assert code == 0
        assert "sqlite3-like" in out and "matmul-tiled" in out

    def test_unknown_platform_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "identify", "--platform", "ENIAC")
        assert code == 2
        assert "unknown platform" in err

    def test_unknown_workload_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "stat", "--workload", "nope")
        assert code == 2
        assert "unknown workload" in err


@pytest.mark.parametrize("platform", ALL_PLATFORMS)
class TestPerPlatformSmoke:
    """Every profiling subcommand across every modelled platform."""

    def test_identify(self, capsys, platform):
        code, out, _ = run_cli(capsys, "identify", "--platform", platform)
        assert code == 0
        assert "identified as" in out

    def test_stat(self, capsys, platform):
        code, out, _ = run_cli(capsys, "stat", "--platform", platform,
                               "--workload", "micro-calltree")
        assert code == 0
        assert "Performance counter stats" in out
        assert "cycles" in out

    def test_record(self, capsys, platform):
        code, out, err = run_cli(capsys, "record", "--platform", platform,
                                 *FAST_SYNTHETIC)
        if platform == "SiFive U74":
            assert code == 1
            assert "record failed" in err
        else:
            assert code == 0
            assert "Hotspots" in out and "hot_leaf" in out

    def test_flamegraph_text(self, capsys, platform):
        code, out, err = run_cli(capsys, "flamegraph", "--platform", platform,
                                 *FAST_SYNTHETIC)
        if platform == "SiFive U74":
            assert code == 1
        else:
            assert code == 0
            assert "hot_leaf" in out

    def test_roofline(self, capsys, platform):
        code, out, _ = run_cli(capsys, "roofline", "--platform", platform,
                               "--workload", "dot-product", "-n", "256")
        assert code == 0
        assert "GFLOP/s" in out


class TestFlagsAndExports:
    def test_stat_json(self, capsys):
        code, out, _ = run_cli(capsys, "stat", "--workload", "micro-calltree",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["workload"] == "micro-calltree"
        assert payload["stat"]["counts"]

    def test_record_json(self, capsys):
        code, out, _ = run_cli(capsys, "record", *FAST_SYNTHETIC, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["recording"]["sample_count"] > 0
        assert payload["hotspots"]["rows"]

    def test_roofline_json(self, capsys):
        code, out, _ = run_cli(capsys, "roofline", "--workload", "dot-product",
                               "-n", "256", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["roofline"]["kernel_gflops"] > 0
        assert payload["roofline"]["loops"]

    def test_analyze_kernel_entry_json(self, capsys):
        """A kernel workload's entry reports address regions and dataflow
        figures per function, and no per-block retirement verdicts."""
        code, out, _ = run_cli(capsys, "analyze", "--workload",
                               "matmul-tiled", "-p", "x60", "--json")
        assert code == 0
        (entry,) = json.loads(out)["workloads"]
        assert entry["kind"] == "kernel"
        functions = {function["name"]: function
                     for function in entry["functions"]}
        assert functions["matmul_tiled"]["regions"]
        for function in functions.values():
            assert "blocks" not in function
            assert function["max_live_values"] > 0

    def test_roofline_honours_no_vendor_driver(self, capsys, monkeypatch):
        """The satellite fix: the flag must reach every machine built."""
        seen = []
        from repro.platforms import machine as machine_module
        original = machine_module.Machine.__init__

        def spy(self, descriptor, vendor_driver=True):
            seen.append(vendor_driver)
            original(self, descriptor, vendor_driver=vendor_driver)

        monkeypatch.setattr(machine_module.Machine, "__init__", spy)
        code, out, _ = run_cli(capsys, "roofline", "--workload", "dot-product",
                               "-n", "128", "--no-vendor-driver")
        assert code == 0
        assert seen and all(flag is False for flag in seen)

    def test_roofline_rejects_synthetic_workload(self, capsys):
        code, _, err = run_cli(capsys, "roofline", "--workload", "micro-calltree")
        assert code == 1
        assert "roofline failed" in err

    def test_analyze_more_cpus_than_harts_fails_cleanly(self, capsys):
        """``--cpus`` above the board's hart count is refused before any
        shard is allocated, locally and through the daemon (a 400)."""
        from repro.service.daemon import BackgroundServer, ServiceConfig
        argv = ["analyze", "--workload", "stream-triad-mt", "-n", "64",
                "--cpus", "60", "-p", "x60"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("analyze failed: SpacemiT X60 has 8 harts; "
                       "cannot build a 60-hart machine\n")
        config = ServiceConfig(port=0, workers=0, warm_kernels=False)
        with BackgroundServer(config) as server:
            code, out, err = run_cli(capsys, *argv, "--server",
                                     server.address)
        assert (code, out) == (1, "")
        assert err.startswith("analyze failed: HTTP 400: ")
        assert "cannot build a 60-hart machine" in err

    def test_record_no_vendor_driver_on_x60_fails_cleanly(self, capsys):
        """Stock kernel on the X60: the workaround leader event is missing."""
        code, _, err = run_cli(capsys, "record", "--platform", "SpacemiT X60",
                               *FAST_SYNTHETIC, "--no-vendor-driver")
        assert code == 1
        assert "record failed" in err

    def test_flamegraph_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "flame.svg"
        code, out, _ = run_cli(capsys, "flamegraph", *FAST_SYNTHETIC,
                               "--output", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("<svg")

    def test_roofline_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "roof.svg"
        code, _, _ = run_cli(capsys, "roofline", "--workload", "dot-product",
                             "-n", "256", "--output", str(out_file))
        assert code == 0
        assert "<svg" in out_file.read_text()

    def test_scale_flag_forwarded_to_synthetic_factories(self, capsys):
        code, out, _ = run_cli(capsys, "stat", "--workload", "micro-calltree",
                               "--scale", "2", "--json")
        assert code == 0
        assert json.loads(out)["stat"]["counts"]


class TestCompareSubcommand:
    def test_compare_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--platforms", *SAMPLING_PLATFORMS,
            *FAST_SYNTHETIC)
        assert code == 0
        assert "comparison: micro-calltree" in out
        assert "flame-graph diff" in out

    def test_compare_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--platforms", *SAMPLING_PLATFORMS,
            *FAST_SYNTHETIC, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["platforms"] == SAMPLING_PLATFORMS
        assert payload["flame_diffs"]["Intel Core i5-1135G7"]

    def test_compare_with_roofline_kernel(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--platforms", *SAMPLING_PLATFORMS,
            "--workload", "dot-product", "-n", "256", "--period", "1000",
            "--roofline")
        assert code == 0
        assert "Roofline" in out

    def test_compare_roofline_flag_warns_on_synthetic_workload(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--platforms", *SAMPLING_PLATFORMS,
            *FAST_SYNTHETIC, "--roofline")
        assert code == 0
        assert "--roofline ignored" in err

    def test_compare_tolerates_unsampleable_platform(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--platforms", "SpacemiT X60", "SiFive U74",
            *FAST_SYNTHETIC)
        assert code == 0
        assert "unavailable" in out


class TestParser:
    def test_every_subcommand_registered(self):
        parser = build_parser()
        choices = parser._subparsers._group_actions[0].choices
        assert {"capabilities", "workloads", "identify", "stat", "record",
                "flamegraph", "roofline", "compare"} <= set(choices)
