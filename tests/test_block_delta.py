"""Differential suite for the dispatch/retirement fast paths and the
executor.

Two layers of evidence that the perf subsystem changes nothing observable:

* an on/off sweep -- every registered workload on every modelled platform,
  full ``Run.to_dict()`` equality (minus spec and wall-clock timings)
  between all fast paths enabled and all fast paths disabled, in counting
  mode everywhere and in sampling mode on the X60 (sampling is the mode
  that makes batched retirement split at every armed overflow);
* executor tests -- ``run_many``/``Session.compare(workers=N)`` return
  bit-identical results to the serial path, in request order.

Plus the Session.compare platform-validation bugfix and the Run timings
surface.  The module keeps the name it had when block-delta retirement was
one of the fast paths under test.
"""

import pytest

from repro.api import ProfileSpec, RunRequest, Session, run_many
from repro.miniperf.stat import DEFAULT_STAT_EVENTS
from repro.platforms import all_platforms
from repro.workloads import registry

PLATFORMS = [descriptor.name for descriptor in all_platforms()]

#: Small parameters so the full sweep stays in the fast lane.
SMALL_PARAMS = {
    "sqlite3-like": {"scale": 1},
    "micro-calltree": {"scale": 1},
    "forkjoin-calltree": {"scale": 1},
    "matmul-tiled": {"n": 12},
    "matmul-naive": {"n": 12},
    "matmul-parallel": {"n": 12},
    "dot-product": {"n": 256},
    "stream-triad": {"n": 256},
    "stream-triad-mt": {"n": 256},
    "stencil3": {"n": 256},
    "memset": {"n": 256},
}

WORKLOADS = sorted(registry)


def _workload(name: str):
    return registry.create(name, **SMALL_PARAMS.get(name, {}))


def _comparable_dict(run) -> dict:
    payload = run.to_dict()
    payload.pop("spec")
    payload.pop("timings", None)
    return payload


# -- on/off differential sweep ------------------------------------------------------------


COUNTING_SPEC = ProfileSpec(analyses=("stat",), events=DEFAULT_STAT_EVENTS)
SAMPLING_SPEC = ProfileSpec(sample_period=2_000,
                            analyses=("hotspots", "flamegraph"))


def _sweep_run(platform: str, name: str, spec: ProfileSpec, fast: bool):
    if not fast:
        spec = spec.without_fast_paths()
    return Session(platform).run(_workload(name), spec)


@pytest.mark.slow
@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_counting_identical_with_fast_paths_off(name, platform):
    """Every registered workload x every platform: full Run.to_dict equality
    between all fast paths on and all fast paths off, counting mode."""
    fast = _sweep_run(platform, name, COUNTING_SPEC, fast=True)
    slow = _sweep_run(platform, name, COUNTING_SPEC, fast=False)
    assert _comparable_dict(fast) == _comparable_dict(slow)


def test_fast_lane_canary_matmul_differential():
    """Fast-lane canary of the sweep: counting, sampling and the roofline
    phases, matmul-tiled, X60 (the full workload x platform matrix runs in
    the slow lane)."""
    for spec in (COUNTING_SPEC, SAMPLING_SPEC,
                 ProfileSpec().counting().with_roofline()):
        fast = _sweep_run("SpacemiT X60", "matmul-tiled", spec, fast=True)
        slow = _sweep_run("SpacemiT X60", "matmul-tiled", spec, fast=False)
        assert _comparable_dict(fast) == _comparable_dict(slow)


@pytest.mark.slow
@pytest.mark.parametrize("name", WORKLOADS)
def test_sampling_identical_with_fast_paths_off(name):
    """Sampling mode (batches split at every armed overflow): identical
    sample streams, hotspots and flame graphs on the X60."""
    fast = _sweep_run("SpacemiT X60", name, SAMPLING_SPEC, fast=True)
    slow = _sweep_run("SpacemiT X60", name, SAMPLING_SPEC, fast=False)
    assert _comparable_dict(fast) == _comparable_dict(slow)
    if fast.recording is not None and name == "sqlite3-like":
        # The sweep isn't vacuous: the big workload actually samples.
        assert fast.recording.sample_count > 0


# -- parallel run executor ----------------------------------------------------------------


class TestRunMany:
    REQUESTS = [
        RunRequest(platform="SpacemiT X60", workload="matmul-tiled",
                   params={"n": 12}, spec=ProfileSpec().counting()),
        RunRequest(platform="Intel Core i5-1135G7", workload="matmul-tiled",
                   params={"n": 12}, spec=ProfileSpec().counting()),
        RunRequest(platform="T-Head C910", workload="sqlite3-like",
                   params={"scale": 1}, spec=ProfileSpec(sample_period=5_000)),
    ]

    def test_workers_match_serial_in_request_order(self):
        serial = run_many(self.REQUESTS, workers=1)
        parallel = run_many(self.REQUESTS, workers=2)
        assert [run.platform for run in parallel] == \
            ["SpacemiT X60", "Intel Core i5-1135G7", "T-Head C910"]
        for serial_run, parallel_run in zip(serial, parallel):
            assert _comparable_dict(serial_run) == _comparable_dict(parallel_run)

    def test_workload_objects_cross_the_pool_when_picklable(self):
        workload = registry.create("stream-triad", n=256)
        requests = [RunRequest(platform=name, workload=workload,
                               spec=ProfileSpec().counting())
                    for name in ("SpacemiT X60", "SiFive U74")]
        runs = run_many(requests, workers=2)
        assert [run.platform for run in runs] == ["SpacemiT X60", "SiFive U74"]
        assert all(run.stat is not None for run in runs)

    def test_failed_analyses_survive_the_pool(self):
        """A Run carrying PerfEventOpenError/SamplingNotSupportedError in
        ``failures`` must cross the process boundary (the exceptions pickle),
        degrading exactly like the serial path instead of breaking the pool."""
        spec = ProfileSpec(vendor_driver=False)        # X60 cannot sample then
        platforms = ["SpacemiT X60", "SiFive U74"]
        serial = Session.compare(platforms, "memset", spec)
        parallel = Session.compare(platforms, "memset", spec, workers=2)
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert parallel_run.errors == serial_run.errors
            assert "sampling" in parallel_run.errors
            assert type(parallel_run.failures["sampling"]) is \
                type(serial_run.failures["sampling"])

    def test_custom_descriptor_profiled_as_given(self):
        """A caller-built PlatformDescriptor travels whole to the workers:
        results match the serial path, not the stock registry platform."""
        import dataclasses

        from repro.platforms import spacemit_x60

        stock = spacemit_x60()
        custom = dataclasses.replace(
            stock, core=dataclasses.replace(stock.core, frequency_hz=8.0e8))
        spec = ProfileSpec().counting()
        serial = Session.compare([custom, "SiFive U74"], "memset", spec)
        parallel = Session.compare([custom, "SiFive U74"], "memset", spec,
                                   workers=2)
        assert _comparable_dict(parallel.runs[0]) == \
            _comparable_dict(serial.runs[0])

    def test_unpicklable_workload_raises_cleanly(self):
        class Opaque:
            name = "opaque"
            handle = lambda self: None      # noqa: E731 -- deliberately unpicklable

        request = RunRequest(platform="SpacemiT X60",
                             workload=Opaque().handle,
                             spec=ProfileSpec().counting())
        with pytest.raises(ValueError, match="registry name"):
            run_many([request, request], workers=2)


class TestCompareWorkers:
    def test_compare_workers_bit_identical_to_serial(self):
        spec = ProfileSpec(sample_period=5_000)
        serial = Session.compare(["SpacemiT X60", "Intel Core i5-1135G7"],
                                 "sqlite3-like", spec,
                                 workload_params={"scale": 1})
        parallel = Session.compare(["SpacemiT X60", "Intel Core i5-1135G7"],
                                   "sqlite3-like", spec, workers=2,
                                   workload_params={"scale": 1})
        assert [run.platform for run in parallel.runs] == \
            [run.platform for run in serial.runs]
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert _comparable_dict(serial_run) == _comparable_dict(parallel_run)
        assert parallel.flame_diffs.keys() == serial.flame_diffs.keys()
        for platform in serial.flame_diffs:
            assert parallel.flame_diffs[platform] == serial.flame_diffs[platform]


# -- Session.compare platform validation (bugfix) ------------------------------------------


class TestComparePlatformValidation:
    def test_unknown_platform_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            Session.compare(["SpacemiT X60", "Amiga 500"], "sqlite3-like")
        message = str(excinfo.value)
        assert "Amiga 500" in message
        for name in PLATFORMS:
            assert name in message

    def test_duplicate_platform_rejected(self):
        with pytest.raises(ValueError, match="duplicate platform"):
            Session.compare(["SpacemiT X60", "SpacemiT X60"], "sqlite3-like")

    def test_duplicate_via_alias_rejected(self):
        # The short alias resolves to the same descriptor as the full name.
        with pytest.raises(ValueError, match="duplicate platform"):
            Session.compare(["x60", "SpacemiT X60"], "sqlite3-like")

    def test_empty_platform_list_rejected(self):
        with pytest.raises(ValueError, match="at least one platform"):
            Session.compare([], "sqlite3-like")

    def test_workload_params_require_registry_name(self):
        with pytest.raises(ValueError, match="registry name"):
            Session.compare(["SpacemiT X60"],
                            registry.create("sqlite3-like", scale=1),
                            workload_params={"scale": 2})


# -- wall-clock phase timings --------------------------------------------------------------


class TestRunTimings:
    def test_timings_phases_present_and_exported(self):
        run = Session("SpacemiT X60").run(_workload("matmul-tiled"),
                                          ProfileSpec().counting())
        assert set(run.timings) == {"compile", "execute", "analyses"}
        assert all(isinstance(value, float) and value >= 0.0
                   for value in run.timings.values())
        assert run.timings["execute"] > 0.0
        assert set(run.to_dict()["timings"]) == {"compile", "execute", "analyses"}
        assert "SpacemiT X60" in run.format_timings()
        assert "execute" in run.format_timings()

    def test_smp_run_reports_timings(self):
        run = Session("SpacemiT X60").run(
            _workload("matmul-parallel"),
            ProfileSpec(analyses=("stat",)).with_cpus(2))
        assert set(run.timings) == {"compile", "execute", "analyses"}
        assert run.timings["execute"] > 0.0

    def test_cli_timings_flag(self, capsys):
        from repro.toolchain.cli import main as cli_main
        code = cli_main(["stat", "--workload", "matmul-tiled", "-n", "12",
                         "-p", "x60", "--timings"])
        assert code == 0
        err = capsys.readouterr().err
        assert "compile" in err and "execute" in err
