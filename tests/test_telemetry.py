"""Tests for the unified telemetry subsystem.

Three layers, matching the package:

* unit coverage of the :class:`MetricsRegistry` (labels, escaping,
  Prometheus exposition, snapshot/delta/merge shipping) and the
  :class:`Tracer` (null span when disabled, tick-ordinal structure,
  exception unwind, wire round trips, trace exports);
* the ``capture()`` window that pool workers and ``run_many`` processes
  use to ship their deltas to the parent;
* the determinism pins: the same workload+spec produces an *identical*
  structural span tree and identical counter values in two fresh
  processes and across ``PYTHONHASHSEED`` values.  (Subprocesses, not
  in-process re-runs: compile caches deliberately warm up within one
  process, so only the first run of a process is the
  canonical one.)
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import ProfileSpec
from repro.telemetry import capture
from repro.telemetry.registry import (
    MetricsRegistry,
    escape_label_value,
    format_metric_value,
    prometheus_family_header,
    render_labels,
)
from repro.telemetry.spans import Span, Tracer, _NULL_SPAN
from repro.telemetry.trace import (
    chrome_trace,
    jsonl_lines,
    spans_to_flame,
    structural_tree,
    write_trace,
)
from repro.toolchain.cli import main as cli_main

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


# -- registry -----------------------------------------------------------------------------


def test_counter_labeled_series_and_values():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "a test counter")
    counter.inc(outcome="hit")
    counter.inc(2, outcome="hit")
    counter.inc(outcome="miss")
    counter.inc(5)
    assert counter.value(outcome="hit") == 3
    assert counter.value(outcome="miss") == 1
    assert counter.value() == 5
    dump = registry.to_dict()["repro_test_total"]
    assert dump["kind"] == "counter"
    assert dump["help"] == "a test counter"
    assert dump["series"] == {
        "": 5, '{outcome="hit"}': 3, '{outcome="miss"}': 1}


def test_labels_render_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("t_total").inc(zebra="z", alpha="a")
    assert list(registry.to_dict()["t_total"]["series"]) == \
        ['{alpha="a",zebra="z"}']


def test_prometheus_escapes_label_values():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    registry = MetricsRegistry()
    registry.counter("odd_total", "odd labels").inc(path='a"b\\c\nd')
    text = registry.prometheus()
    assert "# HELP odd_total odd labels" in text
    assert "# TYPE odd_total counter" in text
    assert 'odd_total{path="a\\"b\\\\c\\nd"} 1' in text


def test_prometheus_family_header_omits_empty_help():
    assert prometheus_family_header("m", "counter", "") == \
        ["# TYPE m counter"]
    assert prometheus_family_header("m", "gauge", "depth") == \
        ["# HELP m depth", "# TYPE m gauge"]


def test_empty_registry_renders_empty_string():
    assert MetricsRegistry().prometheus() == ""


def test_format_metric_value_is_prometheus_style():
    assert format_metric_value(1.0) == "1"
    assert format_metric_value(0.001) == "0.001"
    assert render_labels(()) == ""


def test_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", "latency", bounds=(0.1, 1.0))
    for value in (0.05, 0.05, 0.5, 5.0):
        hist.observe(value, endpoint="/run")
    dump = registry.to_dict()["lat_seconds"]["series"]['{endpoint="/run"}']
    assert dump["count"] == 4
    assert dump["sum"] == pytest.approx(5.6)
    assert dump["buckets"] == {"0.1": 2, "1": 3, "+Inf": 4}
    text = registry.prometheus()
    assert 'lat_seconds_bucket{endpoint="/run",le="0.1"} 2' in text
    assert 'lat_seconds_bucket{endpoint="/run",le="1"} 3' in text
    assert 'lat_seconds_bucket{endpoint="/run",le="+Inf"} 4' in text
    assert 'lat_seconds_count{endpoint="/run"} 4' in text


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("clash")
    with pytest.raises(ValueError, match="already registered as counter"):
        registry.gauge("clash")


def test_snapshot_delta_ships_only_what_changed():
    registry = MetricsRegistry()
    registry.counter("c_total").inc(3, outcome="hit")
    registry.gauge("g").set(7)
    before = registry.snapshot()
    registry.counter("c_total").inc(2, outcome="hit")
    registry.counter("c_total").inc(outcome="miss")
    registry.gauge("g").set(9)
    registry.histogram("h_seconds").observe(0.002)
    delta = registry.snapshot_delta(before)
    assert delta["c_total"]["series"] == \
        [[[["outcome", "hit"]], 2], [[["outcome", "miss"]], 1]]
    # Gauges are point-in-time: the delta ships the current value.
    assert delta["g"]["series"] == [[[], 9]]
    assert delta["h_seconds"]["series"][0][1]["count"] == 1


def test_merge_folds_a_delta_into_another_registry():
    worker = MetricsRegistry()
    worker.counter("c_total", "shipped").inc(4, outcome="hit")
    worker.gauge("g").set(2)
    worker.histogram("h_seconds").observe(0.5)
    parent = MetricsRegistry()
    parent.counter("c_total").inc(outcome="hit")
    parent.merge(worker.snapshot())
    parent.merge(worker.snapshot_delta({}))      # a delta merges the same way
    assert parent.counter("c_total").value(outcome="hit") == 9
    assert parent.gauge("g").value() == 2
    hist_dump = parent.to_dict()["h_seconds"]["series"][""]
    assert hist_dump["count"] == 2
    assert hist_dump["sum"] == pytest.approx(1.0)


def test_merge_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown metric kind"):
        MetricsRegistry().merge({"m": {"kind": "summary", "series": []}})


# -- spans --------------------------------------------------------------------------------


def test_disabled_tracer_returns_the_shared_null_span():
    tracer = Tracer()
    assert tracer.span("a") is _NULL_SPAN
    assert tracer.span("b", cat="phase", x=1) is tracer.span("c")
    with tracer.span("a") as ctx:
        ctx.note(ignored=True)           # the null span absorbs note()
    assert tracer.roots == []
    assert tracer.record("a") is None


def test_span_nesting_and_tick_ordinals():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("outer", cat="phase", a=1) as outer:
        with tracer.span("inner") as inner:
            pass
        outer.note(b=2)
    assert [root.name for root in tracer.roots] == ["outer"]
    root = tracer.roots[0]
    assert root.args == {"a": 1, "b": 2}
    assert [child.name for child in root.children] == ["inner"]
    # Open/close ordinals come from one monotonic tick counter.
    assert (root.seq, inner.span.seq, inner.span.end_seq, root.end_seq) == \
        (1, 2, 3, 4)
    assert root.wall_dur_us >= 0


def test_exception_unwind_closes_the_stack():
    tracer = Tracer()
    tracer.enable()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    with tracer.span("after"):
        pass
    assert [root.name for root in tracer.roots] == ["outer", "after"]
    assert [c.name for c in tracer.roots[0].children] == ["inner"]


def test_record_appends_flat_roots():
    tracer = Tracer()
    tracer.enable()
    span = tracer.record("service_request", cat="service",
                         wall_dur_us=250, trace_id="req-000001")
    assert span in tracer.roots
    assert span.children == []
    assert (span.seq, span.end_seq) == (1, 2)
    assert span.wall_dur_us == 250
    assert span.args["trace_id"] == "req-000001"


def test_wire_round_trip_and_attach():
    source = Tracer()
    source.enable()
    with source.span("run", workload="memset"):
        with source.span("execute"):
            pass
    wire = [root.to_wire() for root in source.drain()]
    assert json.loads(json.dumps(wire)) == wire     # JSON-safe
    sink = Tracer()
    sink.enable()
    parent = sink.record("worker", cat="service")
    sink.attach_wire(wire, parent=parent)
    assert [c.name for c in parent.children] == ["run"]
    assert parent.children[0].children[0].name == "execute"
    assert parent.children[0].args == {"workload": "memset"}


def test_drain_returns_and_clears():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("a"):
        pass
    roots = tracer.drain()
    assert [r.name for r in roots] == ["a"]
    assert tracer.roots == []


# -- trace exports ------------------------------------------------------------------------


def _sample_forest():
    root = Span("run", "phase", {"workload": "memset"})
    root.seq, root.end_seq = 1, 4
    root.wall_start_us, root.wall_dur_us = 100, 50
    child = Span("execute", "phase", {})
    child.seq, child.end_seq = 2, 3
    child.wall_start_us, child.wall_dur_us = 110, 20
    root.children.append(child)
    return [root]


def test_chrome_trace_schema():
    trace = chrome_trace(_sample_forest())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert [event["name"] for event in events] == ["run", "execute"]
    for event in events:
        assert event["ph"] == "X"
        for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
            assert key in event
        assert {"seq", "end_seq"} <= set(event["args"])
    assert events[0]["ts"] == 100 and events[0]["dur"] == 50


def test_jsonl_lines_are_one_object_per_span():
    lines = jsonl_lines(_sample_forest())
    parsed = [json.loads(line) for line in lines]
    assert [entry["name"] for entry in parsed] == ["run", "execute"]
    assert parsed[0]["args"] == {"workload": "memset"}


def test_write_trace_dispatches_on_extension(tmp_path):
    chrome_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    write_trace(str(chrome_path), _sample_forest())
    write_trace(str(jsonl_path), _sample_forest())
    assert "traceEvents" in json.loads(chrome_path.read_text())
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == 2 and all(json.loads(line) for line in lines)


def test_spans_to_flame_weights_by_wall_microseconds():
    flame = spans_to_flame(_sample_forest())
    assert flame.value == 50
    run = flame.child("run")
    assert run.value == 50
    assert run.self_value == 30            # 50 minus the child's 20
    assert run.child("execute").value == 20


def test_structural_tree_strips_wall_clock_fields():
    tree = structural_tree(_sample_forest())
    assert tree == [{
        "name": "run", "cat": "phase", "args": {"workload": "memset"},
        "seq": 1, "end_seq": 4,
        "children": [{"name": "execute", "cat": "phase", "args": {},
                      "seq": 2, "end_seq": 3, "children": []}],
    }]


# -- capture ------------------------------------------------------------------------------


def test_capture_reports_the_window_delta_only():
    from repro import telemetry
    telemetry.REGISTRY.counter("test_capture_total").inc(5)
    with capture(spans=True) as captured:
        telemetry.REGISTRY.counter("test_capture_total").inc(3)
        with telemetry.span("inside_capture"):
            pass
    assert captured.metrics["test_capture_total"]["series"] == [[[], 3]]
    assert [span["name"] for span in captured.spans] == ["inside_capture"]
    # The window enabled the tracer itself, so it also cleaned up after it.
    assert "inside_capture" not in \
        [root.name for root in telemetry.TRACER.roots]
    # The wire form merges into a fresh (parent-side) registry.
    parent = MetricsRegistry()
    parent.merge(captured.to_wire()["metrics"])
    assert parent.counter("test_capture_total").value() == 3


# -- ProfileSpec.telemetry ----------------------------------------------------------------


def test_spec_telemetry_is_not_on_the_wire():
    spec = ProfileSpec().with_telemetry()
    assert spec.telemetry is True
    assert "telemetry" not in spec.to_dict()
    # ...but service requests may still ask workers to record spans.
    assert ProfileSpec.from_dict({"telemetry": True}).telemetry is True
    assert ProfileSpec.from_dict(spec.to_dict()).telemetry is False


# -- CLI: --trace and `repro metrics` -----------------------------------------------------


def test_cli_stat_trace_is_perfetto_loadable(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code = cli_main(["stat", "--workload", "matmul-tiled",
                     "--trace", str(path)])
    err = capsys.readouterr().err
    assert code == 0
    assert f"wrote trace to {path}" in err
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    names = {event["name"] for event in events}
    assert {"cli", "compile", "execute", "analyses"} <= names
    for event in events:
        assert event["ph"] == "X"
        for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
            assert key in event


def test_cli_trace_jsonl_variant(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code = cli_main(["stat", "--workload", "matmul-tiled",
                     "--trace", str(path)])
    capsys.readouterr()
    assert code == 0
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed and {"cli", "execute"} <= {entry["name"]
                                             for entry in parsed}


def test_cli_metrics_local_json(capsys):
    code = cli_main(["metrics", "--workload", "matmul-tiled"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["repro_runs_total"]["kind"] == "counter"
    assert "repro_fast_cache_short_circuits_total" in payload
    assert "repro_compile_cache_total" in payload


def test_cli_metrics_local_prometheus(capsys):
    code = cli_main(["metrics", "--workload", "matmul-tiled",
                     "--format", "prometheus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE repro_runs_total counter" in out
    assert 'workload="matmul-tiled"' in out


# -- determinism across processes and hash seeds ------------------------------------------

# The probe runs in a *fresh* interpreter each time: within one process the
# compile cache and pooled machines warm up, so only a cold process is
# comparable to another cold process.  Histograms are excluded (their sums
# are wall-clock); everything else -- the structural span forest and every
# counter family -- must be byte-identical as sorted JSON.
_PROBE = """\
import json
from repro import telemetry
from repro.api import ProfileSpec, Session
from repro.telemetry.trace import structural_tree

telemetry.enable()
run = Session("SpacemiT X60").run("matmul-tiled", ProfileSpec().counting())
telemetry.disable()
assert not run.errors, run.errors
print(json.dumps({
    "spans": structural_tree(telemetry.TRACER.roots),
    "counters": {name: family["series"]
                 for name, family in telemetry.REGISTRY.to_dict().items()
                 if family["kind"] == "counter"},
}, sort_keys=True))
"""

_probe_cache = {}


def _run_probe(hashseed, instance=0):
    key = (hashseed, instance)
    if key not in _probe_cache:
        # Disk cache off: the first fresh process would *write* disk-cache
        # entries (and emit write counters + compile spans) while the next
        # would *hit* them (hit counters + load spans) -- observability
        # divergence, not result divergence.  Cold-vs-cold is the
        # comparison this probe is about.
        env = dict(os.environ, PYTHONPATH=SRC_DIR,
                   PYTHONHASHSEED=str(hashseed),
                   REPRO_DISK_CACHE="off")
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        _probe_cache[key] = proc.stdout
    return _probe_cache[key]


@pytest.mark.slow
def test_telemetry_identical_across_fresh_processes():
    assert _run_probe(0, instance=0) == _run_probe(0, instance=1)


@pytest.mark.slow
def test_telemetry_identical_across_hash_seeds():
    assert _run_probe(0) == _run_probe(1)
