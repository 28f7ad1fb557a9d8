"""One benchmark child process: set-up, then timed iterations.

``perfbench/run.py`` starts these one at a time::

    python3 perfbench/worker.py setup   --workload W --seed N [--calibrate]
    python3 perfbench/worker.py iterate --workload W --seed N --seconds S
                                        [--trace-out PATH] [--expect DIGEST]
                                        [--calibrate]
    python3 perfbench/worker.py digest  --workload W --seed N [--seed M ...]
                                        [--write]

A child writes JSON lines to stdout: ``ready`` when set-up is done (the
parent times set-up from process start to this line), ``expected`` with
the digest every iteration must reproduce, one ``iter`` line per iteration
and a closing ``done`` line.  ``digest`` prints (and with ``--write``
stores in ``expected_digests.json``) the output digest of a fresh run per
seed.

With ``--calibrate`` a ``calibrate.HostClock`` probes the host's speed
through set-up and through each iteration; the ``ready`` line and every
``iter`` line then carry its figures under ``clock``, so the parent can
scale the raw times to the reference host.

Set-up is what a user's first command pays: ``import repro``, the registry
lookup, the machine build and a cold compile of the workload's kernels
into the empty ``REPRO_CACHE_DIR`` the parent provides.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from calibrate import HostClock, normalise  # noqa: E402
from layers import ROOT, LayerProfiler, install_repro  # noqa: E402
from workloads import (  # noqa: E402
    DIGESTS_FILE,
    PAPER_TABLE2_X60,
    PAPER_X60_IPC,
    PLATFORM,
    WORKLOADS,
    expected_digest,
    kernel_sources,
    load_digests,
    run_digest,
)


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def import_repro() -> float:
    """Import the package from this checkout; returns the seconds it took."""
    start = perf_counter()
    import repro
    import repro.api
    import repro.workloads  # noqa: F401
    elapsed = perf_counter() - start
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro was imported from {origin}, not from {SRC}")
    return elapsed


def setup(bench, seed: int):
    """Registry lookup, machine build and cold compile.

    Returns the workload, its spec and the set-up's compile tallies.
    """
    from repro.api import Session
    from repro.cache.store import default_store
    from repro.compiler import cache as compiler_cache

    workload = bench.create()
    spec = bench.spec(seed)
    session = Session(PLATFORM)
    if spec.cpus > 1:
        session.smp_machine(spec.cpus)
    else:
        session.machine()
    start = perf_counter()
    for source, filename in kernel_sources(workload, spec):
        compiler_cache.compile_source_cached(source, filename,
                                             session.descriptor,
                                             spec.enable_vectorizer)
    compile_s = perf_counter() - start
    tallies = compiler_cache.cache_stats()
    store = default_store()
    disk = store.stats() if store is not None else {"hits": 0, "misses": 0}
    return workload, spec, {
        "compile_s": compile_s,
        "modules_compiled": tallies["misses"] - tallies["disk_hits"],
        "memo_hits": tallies["hits"],
        "disk_hits": disk["hits"],
        "disk_misses": disk["misses"],
    }


# -- deterministic per-iteration figures ----------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _series_total(delta: dict, name: str, **labels) -> int:
    """Sum of a counter's delta series whose labels include *labels*."""
    total = 0
    for key, value in delta.get(name, {}).get("series", []):
        pairs = dict(map(tuple, key))
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += value
    return total


def exact_figures(session, run, spec, delta: dict) -> dict:
    """Simulated statistics and work counters of one run (all exact).

    Read from the session's machine(s) -- fresh per iteration -- and from
    the ``repro.telemetry`` registry delta around the run.
    """
    if spec.cpus > 1:
        machine = session.smp_machine(spec.cpus)
        harts = list(machine.harts)
        stats = machine.stats()
        cycles = stats["wall_cycles"]
        instructions = stats["total_instructions"]
        llc = stats["memory_system"]["llc"]
        controller = stats["memory_system"]["controller"]
        contention = _ratio(controller["contended_accesses"],
                            controller["accesses"])
        hart_caches = [hart["cache"] for hart in stats["harts"]]
    else:
        machine = session.machine()
        harts = [machine]
        stats = machine.stats()
        cycles = stats["cycles"]
        instructions = stats["instructions"]
        levels = [name for name in stats["cache"] if name != "DRAM"]
        llc = stats["cache"][levels[-1]]
        contention = 0.0
        hart_caches = [stats["cache"]]
    l1 = next(iter(hart_caches[0]))
    l1_accesses = sum(c[l1]["hits"] + c[l1]["misses"] for c in hart_caches)
    l1_misses = sum(c[l1]["misses"] for c in hart_caches)
    predictions = sum(h.predictor.predictions for h in harts)
    mispredictions = sum(h.predictor.mispredictions for h in harts)

    sim_ops = instructions
    overhead = 0.0
    if run.roofline is not None:
        # The two-phase roofline flow runs on machines of its own.
        sim_ops += run.roofline.baseline_machine_stats.get("instructions", 0)
        sim_ops += run.roofline.instrumented_machine_stats.get(
            "instructions", 0)
        loops = [loop.instrumentation_overhead for loop in run.roofline.loops
                 if loop.baseline_cycles]
        overhead = sum(loops) / len(loops) if loops else 0.0

    figures = {
        "sim_ops": sim_ops,
        "cpu.sim_cycles": cycles,
        "cpu.sim_instructions": instructions,
        "cpu.l1d_miss_rate": _ratio(l1_misses, l1_accesses),
        "cpu.llc_miss_rate": _ratio(llc["misses"], llc["hits"] + llc["misses"]),
        "cpu.branch_miss_rate": _ratio(mispredictions, predictions),
        "cpu.fast_cache_hit_ratio": _ratio(
            _series_total(delta, "repro_fast_cache_short_circuits_total",
                          level=l1), l1_accesses),
        "smp.dram_contention": contention,
        "smp.quanta": _series_total(delta, "repro_scheduler_quanta_total"),
        "roofline.instrumentation_overhead": overhead,
        "telemetry.block_delta_blocks_retired": _series_total(
            delta, "repro_block_delta_blocks_retired_total"),
        "telemetry.block_delta_eligible_blocks": _series_total(
            delta, "repro_block_delta_classified_total", outcome="eligible"),
        "telemetry.fast_cache_short_circuits": _series_total(
            delta, "repro_fast_cache_short_circuits_total"),
        "telemetry.compile_cache_hits": _series_total(
            delta, "repro_compile_cache_total", outcome="hit"),
        "telemetry.compile_cache_misses": _series_total(
            delta, "repro_compile_cache_total", outcome="miss"),
        "miniperf.table2_err_pp": 0.0,
        "miniperf.ipc_err": 0.0,
    }
    if run.hotspots is not None and run.recording is not None:
        # Model accuracy against the paper's Table 2 (X60 column).
        errors = []
        for function, paper_share in PAPER_TABLE2_X60:
            row = run.hotspots.row_for(function)
            share = row.total_percent if row is not None else 0.0
            errors.append(abs(share - paper_share))
        figures["miniperf.table2_err_pp"] = sum(errors) / len(errors)
        figures["miniperf.ipc_err"] = abs(run.recording.overall_ipc
                                          - PAPER_X60_IPC)
    return figures


# -- iterations -------------------------------------------------------------------------


def reference_digest(workload, spec) -> str:
    """Digest of the same run on the reference paths (no fast paths)."""
    from repro.api import Session
    return run_digest(Session(PLATFORM).run(workload,
                                            spec.without_fast_paths()))


def iteration(index: int, bench, workload, spec, expected: str,
              profiler, clock) -> dict:
    from repro import telemetry
    from repro.api import Session

    record = {"event": "iter", "index": index, "ok": False}
    before = telemetry.REGISTRY.snapshot()
    if profiler is not None:
        profiler.reset()
    timer = profiler.root() if profiler is not None else nullcontext()
    if clock is not None:
        clock.reset()
        clock.start()
    start = perf_counter()
    try:
        with telemetry.span("iteration", cat="bench", workload=bench.name,
                            index=index) as span:
            with timer:
                session = Session(PLATFORM)
                run = session.run(workload, spec)
            seconds = perf_counter() - start
            if clock is not None:
                clock.stop()
            if profiler is not None:
                layers = profiler.snapshot()
                seconds = layers[ROOT]["inclusive_s"]
                span.note(**{name: round(entry["self_s"], 6)
                             for name, entry in layers.items()
                             if entry["self_s"]})
    except Exception as error:  # a failed iteration is reported, not fatal
        record["seconds"] = perf_counter() - start
        record["error"] = "".join(
            traceback.format_exception_only(type(error), error)).strip()
        return record
    finally:
        if clock is not None:
            clock.stop()
    if clock is not None:
        record["clock"] = clock.figures()
        record["norm_seconds"] = normalise(seconds, record["clock"])
    digest = run_digest(run)
    record.update(
        seconds=seconds,
        digest=digest,
        ok=digest == expected and not run.errors,
        exact=exact_figures(session, run, spec,
                            telemetry.REGISTRY.snapshot_delta(before)),
    )
    if run.errors:
        record["error"] = json.dumps(run.errors, sort_keys=True)
    elif digest != expected:
        record["error"] = f"digest {digest} != expected {expected}"
    if profiler is not None:
        record["layers"] = layers
        record["counts"] = dict(profiler.counts)
    return record


def timed_setup(args, profiler=None):
    """Import and set up, probed by a clock with ``--calibrate``.

    Emits the ``ready`` line; returns the workload, its spec and the clock.
    """
    clock = HostClock().start() if args.calibrate else None
    try:
        import_s = import_repro()
        if profiler is not None:
            # Before setup builds the first Machine (see layers.py).
            install_repro(profiler)
        workload, spec, info = setup(WORKLOADS[args.workload], args.seed)
    finally:
        if clock is not None:
            clock.stop()
    info.update(event="ready", import_s=import_s)
    if clock is not None:
        info["clock"] = clock.figures()
    emit(info)
    return workload, spec, clock


def cmd_setup(args) -> None:
    timed_setup(args)


def cmd_iterate(args) -> None:
    bench = WORKLOADS[args.workload]
    profiler = LayerProfiler() if args.trace_out else None
    workload, spec, clock = timed_setup(args, profiler)

    expected, check = args.expect, "given"
    if expected is None:
        expected, check = expected_digest(bench, args.seed), "committed"
    if expected is None:
        expected, check = reference_digest(workload, spec), "reference-path"
    emit({"event": "expected", "digest": expected, "check": check})

    from repro import telemetry
    if profiler is not None:
        telemetry.enable()
    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        emit(iteration(index, bench, workload, spec, expected, profiler,
                       clock))
        index += 1
        gc.collect()
        if perf_counter() >= deadline:
            break
    if profiler is not None:
        from repro.telemetry.trace import write_trace
        telemetry.disable()
        write_trace(args.trace_out, telemetry.TRACER.drain())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"event": "done", "peak_rss_mb": peak_kib / 1024.0})


def cmd_digest(args) -> None:
    from repro.api import Session
    import_repro()
    bench = WORKLOADS[args.workload]
    workload = bench.create()
    digests = {}
    for seed in args.seed:
        digests[str(seed)] = run_digest(
            Session(PLATFORM).run(workload, bench.spec(seed)))
        emit({"workload": bench.name, "seed": seed,
              "digest": digests[str(seed)]})
    if args.write:
        table = load_digests() if os.path.exists(DIGESTS_FILE) else {}
        table.setdefault(bench.name, {}).update(digests)
        table[bench.name] = dict(sorted(table[bench.name].items(),
                                        key=lambda item: int(item[0])))
        with open(DIGESTS_FILE, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(table.items())), handle, indent=1)
            handle.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "iterate", "digest"):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        if name == "digest":
            sub.add_argument("--seed", type=int, action="append", required=True)
            sub.add_argument("--write", action="store_true")
        else:
            sub.add_argument("--seed", type=int, required=True)
        if name != "digest":
            sub.add_argument("--calibrate", action="store_true")
        if name == "iterate":
            sub.add_argument("--seconds", type=float, required=True)
            sub.add_argument("--trace-out")
            sub.add_argument("--expect")
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "iterate": cmd_iterate,
     "digest": cmd_digest}[args.command](args)


if __name__ == "__main__":
    main()
