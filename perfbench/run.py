"""The repository benchmark: the paper's runs, timed end to end and by layer.

    python3 perfbench/run.py --workload sqlite-record-x60 --seed 42 \
        --seconds 25 --trace 0

Run from the root of a checkout.  This parent process never imports
``repro``; it starts one child process at a time (``perfbench/worker.py``):

1. one untimed set-up child, so bytecode caches exist;
2. ``SETUP_SAMPLES - 1`` set-up children, each timed from process start to
   the moment it could begin its first iteration;
3. with ``--trace 0``, one iterating child that sets up (the last set-up
   sample) and then runs iterations until ``--seconds`` have passed;
   with ``--trace 1``, an untraced iterating child and then a traced one,
   half of ``--seconds`` each.  The traced child times every layer
   boundary (``perfbench/layers.py``) and writes a Chrome trace-event file
   under ``perfbench/_out/`` that loads in Perfetto.

With ``--trace 0`` every child runs a ``calibrate.HostClock``, which
probes the host's speed throughout set-up and each iteration; the
end-to-end times are reported in seconds of the reference host
(``calibrate.normalise``), so that neighbours on a shared host move them
less.  The raw medians and the host's speed are printed next to them.

Every iteration's output digest is compared with the committed one
(``expected_digests.json``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print every metric with its unit and
the host fingerprint, which is also appended with the result to
``perfbench/_out/results.jsonl``.  ``perfbench/README.md`` documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import List, Optional

from calibrate import normalise
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKER = os.path.join(HERE, "worker.py")

#: Set-up samples per run; the iterating child is the last of them.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60.0
#: Allowance beyond --seconds for an iterating child's set-up, its last
#: iteration and, for a seed with no committed digest, the reference run.
ITERATE_SLACK_S = 90.0

END_TO_END = (
    ("setup_s", "s"),
    ("iter_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer self-time metrics and the boundaries (layers.py) they sum.
SELF_TIMES = {
    "api.run_self_s": ("api.session",),
    "workloads.trace_self_s": ("workloads.trace",),
    "vm.dispatch_self_s": ("vm.dispatch",),
    "platforms.self_s": ("platforms.execute", "platforms.execute_batch"),
    "cpu.retire_s": ("cpu.retire",),
    "cpu.retire_batch_s": ("cpu.retire_batch",),
    "cpu.access_lines_s": ("cpu.access_lines",),
    "pmu.publish_s": ("pmu.publish", "pmu.publish_many"),
    "miniperf.stat_s": ("miniperf.stat",),
    "miniperf.record_s": ("miniperf.record",),
    "miniperf.hotspots_s": ("miniperf.hotspots",),
    "flamegraph.build_s": ("flamegraph.build",),
    "roofline.run_s": ("roofline.run",),
    "smp.scheduler_self_s": ("smp.scheduler",),
    "smp.perf_s": ("smp.perf",),
    "compiler.iter_compile_s": ("compiler.compile",),
    "telemetry.unattributed_s": ("iteration",),
}

#: Exact figures every iteration reports (worker.exact_figures).
EXACT = (
    ("cpu.sim_cycles", "count"),
    ("cpu.sim_instructions", "count"),
    ("cpu.l1d_miss_rate", "ratio"),
    ("cpu.llc_miss_rate", "ratio"),
    ("cpu.branch_miss_rate", "ratio"),
    ("cpu.fast_cache_hit_ratio", "ratio"),
    ("smp.dram_contention", "ratio"),
    ("smp.quanta", "count"),
    ("roofline.instrumentation_overhead", "ratio"),
    ("telemetry.block_delta_blocks_retired", "count"),
    ("telemetry.block_delta_eligible_blocks", "count"),
    ("telemetry.fast_cache_short_circuits", "count"),
    ("telemetry.compile_cache_hits", "count"),
    ("telemetry.compile_cache_misses", "count"),
    ("miniperf.table2_err_pp", "pp"),
    ("miniperf.ipc_err", "IPC"),
)

#: Set-up figures: (metric, key in the worker's ``ready`` line, unit).
SETUP_FIGURES = (
    ("api.import_s", "import_s", "s"),
    ("compiler.compile_s", "compile_s", "s"),
    ("compiler.modules_compiled", "modules_compiled", "count"),
    ("compiler.memo_hits", "memo_hits", "count"),
    ("cache.disk_hits", "disk_hits", "count"),
    ("cache.disk_misses", "disk_misses", "count"),
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(name, unit) for name, _key, unit in SETUP_FIGURES]
    + [(name, "s") for name in SELF_TIMES]
    + [("vm.ir_instructions", "count"),
       ("vm.ir_per_s", "1/s"),
       ("platforms.execute_calls", "count"),
       ("platforms.execute_batch_calls", "count"),
       ("platforms.ops_per_batch", "ops"),
       ("cpu.retire_calls", "count"),
       ("cpu.retire_batch_calls", "count"),
       ("cpu.block_delta_ratio", "ratio"),
       ("pmu.publish_calls", "count"),
       ("sbi.ecalls", "count"),
       ("kernel.samples", "count"),
       ("kernel.lost_samples", "count"),
       ("kernel.perf_reads", "count"),
       ("telemetry.traced_iter_s", "s"),
       ("telemetry.trace_overhead", "ratio"),
       ("fail_frac", "ratio")]
    + list(EXACT)
)


@dataclass
class Child:
    """One finished worker process: its output records and set-up time."""

    records: List[dict] = field(default_factory=list)
    ready_s: Optional[float] = None
    returncode: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.ready_s is not None

    def events(self, kind: str) -> List[dict]:
        return [r for r in self.records if r.get("event") == kind]

    def first(self, kind: str) -> dict:
        found = self.events(kind)
        return found[0] if found else {}

    @property
    def setup_s(self) -> float:
        """Set-up time, in reference-host seconds when it was probed."""
        clock = self.first("ready").get("clock")
        return normalise(self.ready_s, clock) if clock else self.ready_s


def run_child(argv: List[str], timeout: float) -> Child:
    """Run ``worker.py`` with *argv* to completion, killing it at *timeout*.

    The child gets its own empty ``REPRO_CACHE_DIR``, removed afterwards.
    """
    child = Child()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_DISK_CACHE", None)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if record.get("event") == "ready" and child.ready_s is None:
                child.ready_s = perf_counter() - start
            child.records.append(record)
        child.returncode = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return child


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def iterate(args, seconds: float, expect, trace_out=None) -> Child:
    argv = ["iterate", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds)]
    if not args.trace:
        argv.append("--calibrate")
    if expect:
        argv += ["--expect", expect]
    if trace_out:
        argv += ["--trace-out", trace_out]
    return run_child(argv, seconds + ITERATE_SLACK_S)


def layer_metrics(traced: dict, setups, untraced_s: float) -> dict:
    """Per-layer metrics from the traced iteration of median duration."""
    layers, counts = traced["layers"], traced["counts"]

    def entry(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "work": 0})

    metrics = {name: median(ready[key] for ready in setups)
               for name, key, _unit in SETUP_FIGURES}
    for name, boundaries in SELF_TIMES.items():
        metrics[name] = sum(entry(b)["self_s"] for b in boundaries)
    vm = entry("vm.dispatch")
    batch_calls = entry("platforms.execute_batch")["calls"]
    ring = entry("kernel.ring_write")
    metrics.update({
        "vm.ir_instructions": vm["work"],
        "vm.ir_per_s": vm["work"] / vm["self_s"] if vm["self_s"] else 0.0,
        "platforms.execute_calls": entry("platforms.execute")["calls"],
        "platforms.execute_batch_calls": batch_calls,
        "platforms.ops_per_batch": (counts.get("platforms.batch_ops", 0)
                                    / batch_calls if batch_calls else 0.0),
        "cpu.retire_calls": entry("cpu.retire")["calls"],
        "cpu.retire_batch_calls": entry("cpu.retire_batch")["calls"],
        "cpu.block_delta_ratio": (counts.get("cpu.block_delta_ops", 0)
                                  / counts["platforms.batch_ops"]
                                  if counts.get("platforms.batch_ops")
                                  else 0.0),
        "pmu.publish_calls": entry("pmu.publish")["calls"],
        "sbi.ecalls": entry("sbi.ecall")["calls"],
        "kernel.samples": ring["calls"] - ring["work"],
        "kernel.lost_samples": ring["work"],
        "kernel.perf_reads": entry("kernel.perf_read")["calls"],
        "telemetry.traced_iter_s": traced["seconds"],
        "telemetry.trace_overhead": traced["seconds"] / untraced_s - 1.0,
    })
    for name, _unit in EXACT:
        metrics[name] = traced["exact"][name]
    return metrics


def attribution_error(metrics: dict) -> float:
    """Relative gap between the self times (with the unattributed
    remainder) and the traced iteration time; 0 when they add up."""
    total = sum(metrics[name] for name in SELF_TIMES)
    traced = metrics["telemetry.traced_iter_s"]
    return abs(total - traced) / traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    problems = []
    setup_argv = ["setup", "--workload", args.workload,
                  "--seed", str(args.seed)]
    if not args.trace:
        setup_argv.append("--calibrate")
    run_child(setup_argv, SETUP_TIMEOUT_S)      # untimed: writes bytecode
    setups = [run_child(setup_argv, SETUP_TIMEOUT_S)
              for _ in range(SETUP_SAMPLES - 1)]
    if args.trace:
        trace_out = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        untraced = iterate(args, args.seconds / 2, None)
        expect = untraced.first("expected").get("digest")
        workers = [untraced, iterate(args, args.seconds / 2, expect,
                                     trace_out)]
    else:
        workers = [iterate(args, args.seconds, None)]
    children = setups + workers
    problems += [f"child exited {child.returncode} "
                 f"(ready: {child.ready_s is not None})"
                 for child in children if not child.ok]

    iters = [r for child in workers for r in child.events("iter")]
    failed = [r for r in iters if not r["ok"]]
    problems += [f"iteration {r['index']}: {r.get('error')}" for r in failed]
    digests = {r["digest"] for r in iters if "digest" in r}
    if len(digests) > 1:
        problems.append(f"iterations disagree: {sorted(digests)}")
    good = [[r for r in child.events("iter") if r["ok"]] for child in workers]

    metrics, raw = {}, {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if not all(good):
        problems.append("a child ran no successful iteration")
    elif not args.trace:
        ready = [child for child in children if child.ready_s is not None]
        metrics = {
            "setup_s": median(child.setup_s for child in ready),
            "iter_s": median(r["norm_seconds"] for r in good[0]),
            "sim_ops_per_s": median(r["exact"]["sim_ops"] / r["norm_seconds"]
                                    for r in good[0]),
            "peak_rss_mb": workers[0].first("done").get("peak_rss_mb", 0.0),
        }
        raw = {
            "raw setup_s": median(child.ready_s for child in ready),
            "raw iter_s": median(r["seconds"] for r in good[0]),
            "host speed": median(r["clock"]["speed"] for r in good[0]),
        }
    else:
        # The traced iteration of median duration (the lower one of two).
        by_time = sorted(good[1], key=lambda r: r["seconds"])
        metrics = layer_metrics(by_time[(len(by_time) - 1) // 2],
                                [c.first("ready") for c in children if c.ok],
                                median(r["seconds"] for r in good[0]))
        metrics["fail_frac"] = len(failed) / len(iters)
        gap = attribution_error(metrics)
        if gap > 1e-6:
            problems.append(f"self times miss the traced iteration time "
                            f"by {gap:.2e}")

    result = {
        "correct": not problems,
        "attempted": max(1, len(iters)),
        "failed": len(failed) if iters else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    host = host_fingerprint()
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    check = workers[0].first("expected").get("check", "none")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iters)}  failed {result['failed']}  "
          f"output check: {check}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  ({name:<38} {value:>16.6g})")
    print("host " + json.dumps(host, sort_keys=True))
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as log:
        log.write(json.dumps(dict(result, workload=args.workload,
                                  seed=args.seed, trace=args.trace,
                                  check=check, host=host, raw=raw),
                             sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
