"""Command-line interface: ``repro <subcommand>`` (also ``python -m repro``).

Every profiling subcommand is a thin shell over the unified session API
(:mod:`repro.api`): it resolves ``--workload NAME`` through the registry,
builds a declarative :class:`~repro.api.ProfileSpec` from the flags and runs
it through a :class:`~repro.api.Session`, so every workload kind, platform
and vendor-driver setting goes down exactly one code path.

* ``capabilities``            -- print the Table-1 platform comparison;
* ``platforms``               -- list the modelled platforms (name, arch,
  board, harts, vector extension);
* ``workloads``               -- list the registered workloads;
* ``identify -p X``           -- show what cpuid-based identification finds;
* ``stat -p X``               -- count events for a workload;
* ``record -p X``             -- sample it and print the hotspot table;
* ``flamegraph -p X``         -- same, rendered as a flame graph (text/SVG);
* ``roofline -p X``           -- the compiler-driven roofline for a kernel;
* ``compare --platforms ...`` -- one workload across platforms, side by side,
  with quantitative flame-graph diffs;
* ``analyze -p X``            -- the static-analysis report for a workload
  (address regions, liveness/reaching-defs, race verdicts for parallel
  workloads); nonzero exit on ``racy``/``unknown`` race verdicts;
* ``lint [paths]``            -- the determinism linter over the repo's own
  source (or the given paths); nonzero exit on violations;
* ``metrics``                 -- dump the unified telemetry registry after
  one local counting run, or fetch and pretty-print a daemon's
  ``/metrics`` (``--server``);
* ``sweep``                   -- a cartesian profiling plan (platforms x
  workloads x cpus x spec axes) through the persistent result cache:
  cached cells are served from disk, the rest execute and fill it, and
  the per-sweep trajectory lands in ``BENCH_sweep.json``; a repeated
  identical sweep executes nothing (see :mod:`repro.api.sweep`);
* ``cache {stats,clear,verify}`` -- inspect, empty or integrity-check the
  persistent artifact store (``REPRO_CACHE_DIR`` / ``REPRO_DISK_CACHE``;
  see :mod:`repro.cache`);
* ``serve``                   -- the profiling daemon (warm worker pools,
  content-addressed result cache, bounded admission with backpressure);
  ``--cache-dir PATH`` persists results on disk so a restarted daemon
  starts hot; see :mod:`repro.service`.

``--server URL`` on stat/record/compare/analyze sends the request to a
running ``repro serve`` daemon instead of profiling in process; the output
is the same modulo the wall-clock ``timings`` key, which the service's
content-addressed cache must exclude (``--timings`` therefore prints
nothing remotely).

``--cpus N`` on stat/record/flamegraph/compare profiles on an N-hart SMP
machine (per-hart columns, cpu-tagged samples, hart-labelled flame graphs);
``-a``/``--all-cpus`` uses every hart of the board, like ``perf stat -a``.
``--json`` on stat/record/roofline/compare (and capabilities/platforms)
emits the machine-consumable export of the same run.
``--no-fast-dispatch`` on stat/record/flamegraph/compare selects every
reference path at once -- the reference interpreter instead of the
generated batch-retiring engine and per-op retirement instead of batches,
for the PMU runs and (on compare --roofline) the roofline phases alike.  Output is
bit-identical, only slower; the flag exists for differential runs.
Each subcommand builds one ProfileSpec from its flags and sends that same
spec down the local and the ``--server`` path.  Per-pass IR verification is
the ``REPRO_VERIFY_IR=1`` environment flag, not a CLI option.
``--workers N`` on compare fans the per-platform runs out over N worker
processes (bit-identical Comparison, in platform order); ``--timings`` on
stat/compare prints wall-clock compile/execute/analyses phase timings to
stderr.
``--trace PATH`` on stat/record/compare/analyze/serve records the command's
structured span tree (compile/lower/predecode/execute/analyses/export) and
writes it as Chrome trace-event JSON -- loadable in Perfetto or
``chrome://tracing`` -- or as JSONL when PATH ends in ``.jsonl``.  Tracing
is observability only: the profiled output is byte-identical with and
without it.

Each subcommand imports what only it uses -- the session, the static
analyzers, the roofline plots, the service client and daemon -- so
``repro platforms`` loads none of them, and a synthetic-trace ``record``
loads no compiler, VM, analysis or service code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.api.spec import ProfileSpec
from repro.flamegraph import render_text
from repro.miniperf import Miniperf
from repro.miniperf.groups import SamplingNotSupportedError
from repro.kernel.perf_event import PerfEventOpenError
from repro.platforms import Machine, all_platforms, platform_by_name
from repro.pmu.vendors import all_capabilities
from repro.telemetry import span as _span
from repro.workloads import registry

if TYPE_CHECKING:
    from repro.api.session import Session


def _format_table(keys: List[str], rows: List[dict]) -> str:
    widths = {k: max(len(k), max((len(str(r.get(k, ""))) for r in rows),
                                 default=0)) for k in keys}
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    lines.append("  ".join("-" * widths[k] for k in keys))
    for row in rows:
        lines.append("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))
    return "\n".join(lines)


def _capability_rows() -> List[dict]:
    """Table-1 rows, in descriptor order (no hand-maintained core list)."""
    capabilities = all_capabilities()
    return [capabilities[descriptor.name].as_row()
            for descriptor in all_platforms() if descriptor.is_riscv]


def _capabilities_table() -> str:
    keys = ["Core", "Out-of-Order", "RVV version",
            "Overflow interrupt support", "Upstream Linux support"]
    return _format_table(keys, _capability_rows())


def cmd_capabilities(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(json.dumps(_capability_rows(), indent=2))
        return 0
    print("Comparison of available RISC-V hardware capabilities (Table 1):")
    print(_capabilities_table())
    return 0


def cmd_platforms(args: argparse.Namespace) -> int:
    """List every modelled platform straight from its descriptor."""
    rows = [
        {
            "name": descriptor.name,
            "arch": descriptor.arch,
            "board": descriptor.board,
            "harts": descriptor.harts,
            "vector": descriptor.vector.extension or "none",
        }
        for descriptor in all_platforms()
    ]
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
        return 0
    print(_format_table(["name", "arch", "board", "harts", "vector"], rows))
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    print(registry.describe())
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    machine = Machine(platform_by_name(args.platform),
                      vendor_driver=not args.no_vendor_driver)
    print(Miniperf(machine).describe())
    return 0


def _session(args: argparse.Namespace) -> Session:
    from repro.api.session import Session
    return Session(platform_by_name(args.platform),
                   vendor_driver=not args.no_vendor_driver)


def _cpus(args: argparse.Namespace, platform_name: Optional[str] = None) -> int:
    """Resolve --cpus / -a into a hart count for one platform.

    Non-positive --cpus values flow through so ProfileSpec rejects them with
    the same clean error every other size parameter gets.
    """
    if getattr(args, "all_cpus", False):
        descriptor = platform_by_name(platform_name or args.platform)
        return max(1, descriptor.harts)
    cpus = getattr(args, "cpus", None)
    return 1 if cpus is None else cpus


def _workload_params(args: argparse.Namespace) -> dict:
    """The factory parameters --workload's factory accepts from the flags."""
    params = {}
    accepted = registry.params(args.workload)
    for name in ("scale", "n"):
        value = getattr(args, name, None)
        if value is not None and name in accepted:
            params[name] = value
    return params


def _workload(args: argparse.Namespace):
    """Resolve --workload, forwarding only the parameters its factory takes."""
    return registry.create(args.workload, **_workload_params(args))


def _spec(args: argparse.Namespace, **fields) -> ProfileSpec:
    """The one ProfileSpec a subcommand runs, locally or via --server."""
    return ProfileSpec(fast_dispatch=not getattr(args, "no_fast_dispatch",
                                                 False),
                       cpus=_cpus(args), **fields)


def _print_timings(args: argparse.Namespace, *runs) -> None:
    if getattr(args, "timings", False):
        for run in runs:
            print(run.format_timings(), file=sys.stderr)


# -- --server plumbing --------------------------------------------------------------------
#
# Every profiling subcommand takes --server URL: instead of profiling in
# process it ships the same JSON-shaped RunRequest to a `repro serve` daemon
# and prints the daemon's response.  Output is byte-identical to the local
# path modulo the wall-clock `timings` key (the one field the service's
# content-addressed cache must exclude): --json re-dumps the served run with
# the same indent, and text output prints the worker-side renderings of the
# very same result objects.


def _remote_client(args: argparse.Namespace):
    from repro.service.client import RetryPolicy, ServiceClient
    retries = int(getattr(args, "retries", 0) or 0)
    policy = None
    if retries > 0:
        policy = RetryPolicy(
            attempts=retries + 1,
            deadline=getattr(args, "retry_deadline", None))
    return ServiceClient(args.server, retry=policy)


def _remote_request(args: argparse.Namespace, spec: ProfileSpec) -> dict:
    """The JSON-shaped RunRequest a subcommand's flags describe."""
    return {
        "platform": args.platform,
        "workload": args.workload,
        "params": _workload_params(args),
        "spec": spec.to_dict(),
        "vendor_driver": not args.no_vendor_driver,
    }


def _remote_run(args: argparse.Namespace, spec: ProfileSpec, label: str,
                error_key: str, render_keys: List[str]) -> int:
    """Run one request via --server; print what the local path would."""
    from repro.service.client import ServiceError
    try:
        payload = _remote_client(args).run(_remote_request(args, spec))
    except ServiceError as error:
        print(f"{label} failed: {error}", file=sys.stderr)
        return 1
    run = payload["run"]
    if error_key in run.get("errors", {}):
        print(f"{label} failed: {run['errors'][error_key]}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(json.dumps(run, indent=2))
        return 0
    renderings = payload.get("renderings", {})
    print("\n\n".join(renderings[key] for key in render_keys
                      if key in renderings))
    return 0


def cmd_stat(args: argparse.Namespace) -> int:
    spec = _spec(args).counting()
    if args.server:
        return _remote_run(args, spec, "stat", "stat", ["stat"])
    run = _session(args).run(_workload(args), spec)
    if "stat" in run.errors:
        print(f"stat failed: {run.errors['stat']}", file=sys.stderr)
        return 1
    with _span("export", cat="cli",
               format="json" if args.json else "text"):
        if args.json:
            print(run.to_json())
        else:
            print(run.stat.format())
    _print_timings(args, run)
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    spec = _spec(args, sample_period=args.period,
                 analyses=("hotspots", "flamegraph"))
    if args.server:
        return _remote_run(args, spec, "record", "sampling",
                           ["recording", "hotspots"])
    run = _session(args).run(_workload(args), spec)
    if "sampling" in run.errors:
        print(f"record failed: {run.errors['sampling']}", file=sys.stderr)
        return 1
    with _span("export", cat="cli",
               format="json" if args.json else "text"):
        if args.json:
            print(run.to_json())
            return 0
        print(run.recording.describe())
        print()
        print(run.hotspots.format())
    return 0


def cmd_flamegraph(args: argparse.Namespace) -> int:
    spec = _spec(args, sample_period=args.period, analyses=("flamegraph",))
    run = _session(args).run(_workload(args), spec)
    if "sampling" in run.errors:
        print(f"flamegraph failed: {run.errors['sampling']}", file=sys.stderr)
        return 1
    flame = run.flame(args.metric)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(run.flamegraph_svg(args.metric))
        print(f"wrote {args.output}")
    else:
        print(render_text(flame, width=args.width))
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    from repro.roofline.plot import render_ascii_roofline, render_svg_roofline
    spec = _spec(args, analyses=("roofline",),
                 enable_vectorizer=not args.no_vectorize)
    run = _session(args).run(_workload(args), spec)
    if "roofline" in run.errors:
        print(f"roofline failed: {run.errors['roofline']}", file=sys.stderr)
        return 1
    if args.json:
        print(run.to_json())
        return 0
    result = run.roofline
    # One model drives both artifacts so the ASCII plot and the SVG agree.
    model = result.model()
    print(render_ascii_roofline(model))
    print()
    print(f"kernel: {result.kernel_gflops:.2f} GFLOP/s at "
          f"AI {result.kernel_arithmetic_intensity:.3f} FLOP/byte")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_svg_roofline(model))
        print(f"wrote {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    analyses = ("hotspots", "flamegraph")
    workload = _workload(args)
    if args.roofline:
        if workload.supports_roofline:
            analyses = analyses + ("roofline",)
        else:
            print(f"warning: --roofline ignored; workload {workload.name!r} "
                  "has no compiled kernel", file=sys.stderr)
    spec = _spec(args, sample_period=args.period, analyses=analyses,
                 vendor_driver=not args.no_vendor_driver)
    if args.server:
        from repro.service.client import ServiceError
        try:
            payload = _remote_client(args).compare(
                args.platforms, args.workload, spec=spec.to_dict(),
                params=_workload_params(args))
        except ServiceError as error:
            print(f"compare failed: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload["comparison"], indent=2))
        else:
            print(payload["report"])
        return 0
    # Platform names go to compare() unresolved: it validates the whole list
    # up front (unknown or duplicate names raise one clean ValueError).  The
    # workload travels by registry name so --workers can ship it to worker
    # processes.
    from repro.api.session import Session
    comparison = Session.compare(
        args.platforms, args.workload, spec,
        workers=args.workers, workload_params=_workload_params(args))
    with _span("export", cat="cli",
               format="json" if args.json else "text"):
        if args.json:
            print(comparison.to_json())
        else:
            print(comparison.report())
    _print_timings(args, *comparison.runs)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        build_analyze_report,
        failed_certifications,
        format_analyze_report,
    )
    cpus = 1 if args.cpus is None else args.cpus
    if getattr(args, "server", None):
        from repro.service.client import ServiceError
        try:
            payload = _remote_client(args).analyze(
                args.platform,
                workload=None if args.all else args.workload,
                cpus=cpus,
                params={} if args.all else _workload_params(args),
                all_workloads=args.all)
        except ServiceError as error:
            print(f"analyze failed: {error}", file=sys.stderr)
            return 1
        report = payload["analyze"]
    else:
        try:
            report = build_analyze_report(
                args.platform, cpus=cpus,
                workload=None if args.all else args.workload,
                params={} if args.all else _workload_params(args),
                all_workloads=args.all)
        except ValueError as error:
            print(f"analyze failed: {error}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_analyze_report(report))
    bad = failed_certifications(report)
    if bad:
        print(f"race certification failed for: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the telemetry registry (local run) or a daemon's ``/metrics``."""
    from repro import telemetry
    if args.server:
        from repro.service.client import ServiceError
        try:
            if args.format == "prometheus":
                print(_remote_client(args).metrics(format="prometheus"),
                      end="")
            else:
                print(json.dumps(_remote_client(args).metrics(), indent=2))
        except ServiceError as error:
            print(f"metrics failed: {error}", file=sys.stderr)
            return 1
        return 0
    spec = _spec(args).counting()
    run = _session(args).run(_workload(args), spec)
    if "stat" in run.errors:
        print(f"metrics failed: {run.errors['stat']}", file=sys.stderr)
        return 1
    if args.format == "prometheus":
        print(telemetry.REGISTRY.prometheus(), end="")
    else:
        print(json.dumps(telemetry.REGISTRY.to_dict(), indent=2))
    return 0


def _parse_axis(raw: str) -> tuple:
    """One ``--axis KEY=V1,V2`` flag: a ProfileSpec field and its values.

    Values parse as JSON where they can (``true``, ``3``, ``[1,2]``) and
    fall back to the literal string, so ``--axis enable_vectorizer=true,false``
    and ``--axis events=["cycles"]`` both work without quoting gymnastics.
    """
    name, sep, rest = raw.partition("=")
    if not sep or not name or not rest:
        raise ValueError(
            f"malformed --axis {raw!r}; expected KEY=VALUE[,VALUE...]")
    values = []
    for token in rest.split(","):
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return name, values


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a cartesian plan through the persistent result cache."""
    from repro import telemetry
    from repro.api.sweep import build_plan, sweep
    from repro.cache.store import default_store

    platforms = args.platforms or [d.name for d in all_platforms()]
    workloads = args.workloads or sorted(registry)
    axes = dict(_parse_axis(raw) for raw in args.axis or [])
    plan = build_plan(platforms, workloads, cpus=tuple(args.cpus),
                      axes=axes or None)
    store = default_store()
    if store is None and not args.bypass_cache:
        print("warning: disk cache disabled (REPRO_DISK_CACHE=off); "
              "every cell will execute", file=sys.stderr)
    # Sweep elapsed time is reporting-only telemetry for the trajectory
    # file; it never feeds modelled time or cached bytes.
    started = telemetry.clock()
    result = sweep(plan, workers=args.workers, store=store,
                   bypass_cache=args.bypass_cache, resume=args.resume)
    elapsed = telemetry.clock() - started
    doc = result.write_trajectory(args.out, elapsed_seconds=elapsed)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(result.summary())
        print(f"wrote {args.out}")
        for outcome in result.failed_cells:
            failure = outcome.failure
            print(f"cell {outcome.cell.platform}/{outcome.cell.workload} "
                  f"failed: {failure.get('type')}: {failure.get('message')}",
                  file=sys.stderr)
    if result.failed_cells:
        return 1
    return 1 if any(outcome.errors for outcome in result.outcomes) else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, empty or integrity-check the persistent artifact store."""
    from repro.cache.store import DiskCache, cache_enabled, default_cache_dir
    if not cache_enabled():
        print("disk cache disabled (REPRO_DISK_CACHE=off)", file=sys.stderr)
        return 1
    store = DiskCache(default_cache_dir())
    if args.action == "stats":
        report = store.stats(scan=True)
    elif args.action == "clear":
        report = {"root": str(store.root), "removed": store.clear()}
    else:  # verify
        report = dict(store.verify(remove=not args.keep_corrupt),
                      root=str(store.root))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    if args.action == "verify" and report.get("corrupt"):
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the profiling daemon (see :mod:`repro.service`)."""
    from repro.service.daemon import ServiceConfig, serve
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        warm_platforms=tuple(args.warm_platforms),
        warm_kernels=not args.no_warm_kernels,
        drain_timeout=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    serve(config, announce=lambda address: print(
        f"repro serve listening on {address}", flush=True))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import default_lint_root, iter_python_files, lint_paths
    paths = args.paths or [default_lint_root()]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise ValueError(f"no such file or directory: {', '.join(missing)}")
    violations = lint_paths(paths)
    if args.json:
        print(json.dumps([v.to_dict() for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.format())
        checked = sum(1 for _ in iter_python_files(paths))
        print(f"checked {checked} file(s): {len(violations)} violation(s)")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMU profiling and hardware-agnostic roofline analysis "
                    "on modelled RISC-V (and x86) platforms.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    capabilities = subparsers.add_parser(
        "capabilities", help="print the Table-1 comparison")
    capabilities.add_argument("--json", action="store_true", help="emit JSON")
    capabilities.set_defaults(func=cmd_capabilities)

    platforms = subparsers.add_parser(
        "platforms", help="list modelled platforms (name, arch, board, harts)")
    platforms.add_argument("--json", action="store_true", help="emit JSON")
    platforms.set_defaults(func=cmd_platforms)

    subparsers.add_parser("workloads", help="list registered workloads") \
        .set_defaults(func=cmd_workloads)

    def add_platform(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("-p", "--platform", default="SpacemiT X60",
                         help="platform name (default: SpacemiT X60)")
        sub.add_argument("--no-vendor-driver", action="store_true",
                         help="model a stock kernel without vendor patches")

    def add_workload(sub: argparse.ArgumentParser, default: str) -> None:
        sub.add_argument("--workload", default=default,
                         help=f"registered workload name (default: {default}; "
                              "see 'repro workloads')")
        sub.add_argument("--scale", type=int, default=None,
                         help="work multiplier for synthetic workloads")
        sub.add_argument("-n", type=int, default=None,
                         help="problem size for kernel workloads")

    def add_cpus(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--cpus", type=int, default=None,
                         help="profile on an N-hart SMP machine (default 1)")
        sub.add_argument("-a", "--all-cpus", action="store_true",
                         help="system-wide: use every hart of the board")

    def add_server(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--server", default=None, metavar="URL",
                         help="send the request to a `repro serve` daemon "
                              "at URL instead of profiling in process "
                              "(same output, minus wall-clock timings)")
        sub.add_argument("--retries", type=int, default=2, metavar="N",
                         help="retry transient --server failures (429/5xx, "
                              "unreachable) up to N times with exponential "
                              "backoff, honoring Retry-After; 0 disables "
                              "(default 2)")
        sub.add_argument("--retry-deadline", type=float, default=30.0,
                         metavar="SECONDS",
                         help="give up once cumulative --server retry "
                              "backoff would exceed this budget "
                              "(default 30)")

    def add_trace(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--trace", default=None, metavar="PATH",
                         help="record this command's structured spans and "
                              "write them as Chrome trace-event JSON "
                              "(Perfetto-loadable; a .jsonl PATH writes "
                              "JSON-lines instead)")

    def add_dispatch(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--no-fast-dispatch", action="store_true",
                         help="select every reference path: the reference "
                              "interpreter and per-op retirement "
                              "(bit-identical results, slower; "
                              "for differential runs)")

    identify = subparsers.add_parser("identify", help="cpuid-based identification")
    add_platform(identify)
    identify.set_defaults(func=cmd_identify)

    stat = subparsers.add_parser("stat", help="counting-mode profile")
    add_platform(stat)
    add_workload(stat, "sqlite3-like")
    add_cpus(stat)
    add_dispatch(stat)
    stat.add_argument("--json", action="store_true", help="emit JSON")
    stat.add_argument("--timings", action="store_true",
                      help="print wall-clock phase timings "
                           "(compile/execute/analyses) to stderr")
    add_server(stat)
    add_trace(stat)
    stat.set_defaults(func=cmd_stat)

    record = subparsers.add_parser("record", help="sampling profile + hotspots")
    add_platform(record)
    add_workload(record, "sqlite3-like")
    add_cpus(record)
    add_dispatch(record)
    record.add_argument("--period", type=int, default=20_000)
    record.add_argument("--json", action="store_true", help="emit JSON")
    add_server(record)
    add_trace(record)
    record.set_defaults(func=cmd_record)

    flame = subparsers.add_parser("flamegraph", help="render a flame graph")
    add_platform(flame)
    add_workload(flame, "sqlite3-like")
    add_cpus(flame)
    add_dispatch(flame)
    flame.add_argument("--period", type=int, default=20_000)
    flame.add_argument("--metric", choices=["cycles", "instructions"],
                       default="cycles")
    flame.add_argument("--width", type=int, default=100)
    flame.add_argument("--output", help="write SVG to this path")
    flame.set_defaults(func=cmd_flamegraph)

    roofline = subparsers.add_parser("roofline", help="compiler-driven roofline")
    add_platform(roofline)
    add_workload(roofline, "matmul-tiled")
    roofline.add_argument("--no-vectorize", action="store_true")
    roofline.add_argument("--output", help="write SVG to this path")
    roofline.add_argument("--json", action="store_true", help="emit JSON")
    roofline.set_defaults(func=cmd_roofline)

    compare = subparsers.add_parser(
        "compare", help="one workload across platforms, side by side")
    compare.add_argument("--platforms", nargs="+",
                         default=["SpacemiT X60", "Intel Core i5-1135G7"],
                         help="two or more platform names; the first is the "
                              "flame-graph diff baseline")
    compare.add_argument("--no-vendor-driver", action="store_true",
                         help="model stock kernels without vendor patches")
    add_workload(compare, "sqlite3-like")
    compare.add_argument("--cpus", type=int, default=None,
                         help="profile each platform on an N-hart SMP machine")
    add_dispatch(compare)
    compare.add_argument("--period", type=int, default=20_000)
    compare.add_argument("--roofline", action="store_true",
                         help="also run the roofline flow (kernel workloads)")
    compare.add_argument("--workers", type=int, default=1,
                         help="fan per-platform runs out over N worker "
                              "processes (results are bit-identical to the "
                              "serial run, in platform order)")
    compare.add_argument("--timings", action="store_true",
                         help="print per-platform wall-clock phase timings "
                              "(compile/execute/analyses) to stderr")
    compare.add_argument("--json", action="store_true", help="emit JSON")
    add_server(compare)
    add_trace(compare)
    compare.set_defaults(func=cmd_compare)

    analyze = subparsers.add_parser(
        "analyze", help="static analysis report (address regions, "
                        "liveness/reaching defs, race verdicts)")
    add_platform(analyze)
    add_workload(analyze, "stream-triad")
    analyze.add_argument("--all", action="store_true",
                         help="analyze every registered workload")
    analyze.add_argument("--cpus", type=int, default=None,
                         help="shard count for parallel-workload race "
                              "analysis (default 1)")
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    add_server(analyze)
    add_trace(analyze)
    analyze.set_defaults(func=cmd_analyze)

    sweep = subparsers.add_parser(
        "sweep", help="cartesian profiling plan (platforms x workloads x "
                      "cpus x spec axes) through the persistent result "
                      "cache; repeated sweeps skip cached cells")
    sweep.add_argument("--platforms", nargs="+", default=None,
                       help="platform names (default: every modelled "
                            "platform)")
    sweep.add_argument("--workloads", nargs="+", default=None,
                       help="registered workload names (default: every "
                            "registered workload)")
    sweep.add_argument("--cpus", nargs="+", type=int, default=[1],
                       help="hart counts to sweep over (default: 1)")
    sweep.add_argument("--axis", action="append", metavar="KEY=V1,V2",
                       help="sweep a ProfileSpec field over values, e.g. "
                            "--axis enable_vectorizer=true,false "
                            "(repeatable; values parse as JSON, falling "
                            "back to strings)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes for cache-miss cells "
                            "(default: one per CPU)")
    sweep.add_argument("--out", default="BENCH_sweep.json",
                       help="trajectory file path "
                            "(default: BENCH_sweep.json)")
    sweep.add_argument("--bypass-cache", action="store_true",
                       help="execute every cell, refilling the cache, "
                            "without consulting it")
    sweep.add_argument("--resume", action="store_true",
                       help="skip cells an interrupted identical sweep "
                            "already journaled as complete (their results "
                            "are served from the cache); failed cells are "
                            "retried")
    sweep.add_argument("--json", action="store_true",
                       help="print the trajectory document instead of the "
                            "summary line")
    sweep.set_defaults(func=cmd_sweep)

    cache = subparsers.add_parser(
        "cache", help="inspect, empty or integrity-check the persistent "
                      "artifact store (REPRO_CACHE_DIR)")
    cache.add_argument("action", choices=["stats", "clear", "verify"],
                       help="stats: tallies and on-disk totals; clear: "
                            "remove every entry; verify: integrity-check "
                            "all entries (nonzero exit on corruption)")
    cache.add_argument("--keep-corrupt", action="store_true",
                       help="verify only: report corrupt entries without "
                            "removing them")
    cache.add_argument("--json", action="store_true", help="emit JSON")
    cache.set_defaults(func=cmd_cache)

    serve = subparsers.add_parser(
        "serve", help="profiling-as-a-service daemon: warm worker pools, "
                      "content-addressed result cache, backpressure")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="port to bind; 0 picks an ephemeral port "
                            "(default: 8787)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes; 0 executes inline in the "
                            "daemon (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="admitted-request bound before 429 responses "
                            "(default: 32)")
    serve.add_argument("--request-timeout", type=float, default=300.0,
                       help="per-request execution timeout in seconds "
                            "(default: 300)")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="result-cache entry bound (default: 256)")
    serve.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="back the result cache with a persistent disk "
                            "store at PATH, so a restarted daemon serves "
                            "previous results as hits (default: memory "
                            "only)")
    serve.add_argument("--warm-platforms", nargs="+",
                       default=["SpacemiT X60"],
                       help="platforms whose registry kernels each worker "
                            "precompiles")
    serve.add_argument("--no-warm-kernels", action="store_true",
                       help="skip precompiling registry kernels at worker "
                            "spawn")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                            "seconds in-flight requests get to finish "
                            "before a clean 503 (default: 10)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="worker crashes within the breaker window that "
                            "switch the daemon to degraded cache-only mode "
                            "(default: 3)")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds a tripped crash-loop breaker waits "
                            "before probing with one request (default: 5)")
    add_trace(serve)
    serve.set_defaults(func=cmd_serve)

    metrics = subparsers.add_parser(
        "metrics", help="dump the unified telemetry registry after one "
                        "local counting run, or fetch a daemon's /metrics")
    add_platform(metrics)
    add_workload(metrics, "matmul-tiled")
    add_cpus(metrics)
    add_dispatch(metrics)
    metrics.add_argument("--format", choices=["json", "prometheus"],
                         default="json",
                         help="output format (default: json)")
    add_server(metrics)
    metrics.set_defaults(func=cmd_metrics)

    lint = subparsers.add_parser(
        "lint", help="determinism linter (hash/id, set iteration, "
                     "wall-clock, unseeded random)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true", help="emit JSON")
    lint.set_defaults(func=cmd_lint)
    return parser


def _run_traced(args: argparse.Namespace) -> int:
    """Run one subcommand with the span tracer on, then write the trace.

    The trace is written even when the command fails -- the spans up to the
    failure are exactly what one wants to look at then.
    """
    from repro import telemetry
    from repro.telemetry.trace import write_trace
    telemetry.enable()
    try:
        with telemetry.span("cli", cat="cli", command=args.command):
            return args.func(args)
    finally:
        telemetry.disable()
        write_trace(args.trace, telemetry.TRACER.drain())
        print(f"wrote trace to {args.trace}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "trace", None):
            return _run_traced(args)
        return args.func(args)
    except (KeyError, ValueError, SamplingNotSupportedError,
            PerfEventOpenError) as error:
        # str(KeyError) is the repr of its argument; print the message.
        message = (error.args[0] if isinstance(error, KeyError) and error.args
                   else error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
