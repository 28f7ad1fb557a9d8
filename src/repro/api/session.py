"""The profiling session: one composable entry point for the whole toolchain.

A :class:`Session` binds a platform model; ``session.run(workload, spec)``
profiles any :class:`~repro.api.workload.Workload` (synthetic trace replay
or compiled kernel) according to a declarative
:class:`~repro.api.spec.ProfileSpec` and returns a uniform
:class:`~repro.api.run.Run`.  :meth:`Session.compare` runs the same workload
and spec across several platforms and returns a :class:`Comparison` with
side-by-side summaries and quantitative flame-graph diffs.

Machine construction is lazy and cached per vendor-driver setting and hart
count, so a session is cheap to create and repeated runs on the same
platform share one machine model (and therefore one identified CPU), like
the real tool.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry as _telemetry
from repro.api.run import Comparison, Run
from repro.api.spec import ProfileSpec
from repro.api.workload import Workload
from repro.flamegraph import build_flame_graph
from repro.kernel.perf_event import PerfEventOpenError
from repro.miniperf import Miniperf
from repro.miniperf.groups import SamplingNotSupportedError
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.platforms import all_platforms, platform_by_name

PlatformLike = Union[str, PlatformDescriptor]


def _resolve_platform(platform: PlatformLike) -> PlatformDescriptor:
    if isinstance(platform, PlatformDescriptor):
        return platform
    return platform_by_name(platform)


def _validate_platforms(platforms: Sequence[PlatformLike]) -> List[PlatformDescriptor]:
    """Resolve a compare() platform list up front, with clean errors.

    An unknown name raises a ValueError listing the valid platform names; a
    platform appearing twice raises as well -- both instead of failing deep
    inside machine construction (or silently diffing a platform against
    itself)."""
    if not platforms:
        raise ValueError("compare needs at least one platform")
    descriptors: List[PlatformDescriptor] = []
    seen = set()
    for platform in platforms:
        if isinstance(platform, PlatformDescriptor):
            descriptor = platform
        else:
            try:
                descriptor = platform_by_name(platform)
            except (KeyError, ValueError):
                valid = ", ".join(d.name for d in all_platforms())
                raise ValueError(
                    f"unknown platform {platform!r}; valid platforms: {valid}"
                ) from None
        if descriptor.name in seen:
            raise ValueError(
                f"duplicate platform {descriptor.name!r} in compare(); "
                "each platform may appear at most once"
            )
        seen.add(descriptor.name)
        descriptors.append(descriptor)
    return descriptors


def _resolve_workload(workload: Union[str, Workload]) -> Workload:
    if isinstance(workload, str):
        from repro.workloads import registry
        return registry[workload]
    return workload


@contextmanager
def _phase(timings: Dict[str, float], name: str, analysis: str):
    """One run phase: its telemetry span plus its share of ``run.timings``.

    ``run.timings`` is host wall time (:func:`repro.telemetry.clock`),
    reported on ``--timings`` and stripped from goldens; a phase that raises
    adds no time.
    """
    start = _telemetry.clock()
    with _telemetry.span(name, analysis=analysis):
        yield
    timings[name] += _telemetry.clock() - start


def _threads_for(workload: Workload, spec: ProfileSpec):
    """Shard *workload* for an SMP run.

    Workloads implementing the :class:`~repro.workloads.parallel.
    ParallelWorkload` protocol shard themselves; any other workload runs
    as one software thread (on hart 0), which is what an unthreaded
    program does on an SMP box.
    """
    threads = getattr(workload, "threads", None)
    if callable(threads):
        return threads(spec.cpus, spec)

    def body(machine, task):
        workload.executable(machine, task, spec)()
        yield

    return [(workload.name, body)]


class _HartBackend:
    """How a single-hart run measures: ``miniperf`` on one :class:`Machine`.

    :meth:`Session.run` drives one phase loop over a backend: ``prepare``
    builds what the stat/sampling phase runs (its compile phase),
    ``stat``/``record`` run it under the PMU, and the rest derive the
    analyses from the recording and the single-hart roofline.
    """

    def __init__(self, tool: Miniperf, machine, workload: Workload,
                 spec: ProfileSpec):
        self.tool = tool
        self.machine = machine
        self.workload = workload
        self.spec = spec

    def prepare(self):
        task = self.machine.create_task(self.workload.name)
        return self.workload.executable(self.machine, task, self.spec), task

    def stat(self, prepared):
        executable, task = prepared
        return self.tool.stat(executable, task=task, events=self.spec.events)

    def record(self, prepared):
        executable, task = prepared
        return self.tool.record(executable, task=task,
                                events=self.spec.events,
                                sample_period=self.spec.sample_period)

    def hotspots(self, recording):
        return self.tool.hotspots(recording)

    def flame_graph(self, recording, weight: str):
        return build_flame_graph(recording.samples, weight=weight)

    def roofline(self, single):
        return single


class _SmpBackend(_HartBackend):
    """How an SMP run measures: system-wide ``perf -a`` on a multi-hart
    machine, with the workload sharded into scheduler threads."""

    def prepare(self):
        return _threads_for(self.workload, self.spec)

    def stat(self, threads):
        from repro.smp import smp_stat
        return smp_stat(self.machine, threads, events=self.spec.events)

    def record(self, threads):
        from repro.smp import smp_record
        return smp_record(self.machine, threads, events=self.spec.events,
                          sample_period=self.spec.sample_period)

    def hotspots(self, recording):
        return recording.hotspots()

    def flame_graph(self, recording, weight: str):
        return recording.flame_graph(weight=weight)

    def roofline(self, single):
        # The kernel point is measured on one hart; the roofs are aggregated
        # over all harts.  The shared levels (DRAM and the platform's LLC,
        # which SharedMemorySystem shares across harts) keep their
        # single-instance bandwidth.
        from repro.smp import aggregate_roofline
        return aggregate_roofline(
            single, self.spec.cpus,
            shared_levels=("DRAM", self.machine.descriptor.caches[-1].name))


def _measure(run: Run, analysis: str, backend: _HartBackend, measure,
             timings: Dict[str, float]):
    """Compile and execute one measured analysis (``stat`` or ``sampling``).

    Returns the result, or None with the failure recorded in ``run.errors``
    and ``run.failures``.
    """
    try:
        with _phase(timings, "compile", analysis):
            prepared = backend.prepare()
        with _phase(timings, "execute", analysis):
            result = measure(prepared)
    except (SamplingNotSupportedError, PerfEventOpenError) as error:
        run.errors[analysis] = str(error)
        run.failures[analysis] = error
        return None
    # SMP results carry the executed schedule; single-hart ones have none.
    run.schedule = getattr(result, "schedule", None)
    return result


class Session:
    """Profiling session bound to one platform model.

    Parameters
    ----------
    platform:
        A :class:`PlatformDescriptor` or a platform name (resolved through
        :func:`repro.platforms.platform_by_name`).
    vendor_driver:
        Session-wide default for specs that leave ``vendor_driver`` unset;
        defaults to the paper's measured configuration (patches installed).
    """

    def __init__(self, platform: PlatformLike, vendor_driver: bool = True):
        self.descriptor = _resolve_platform(platform)
        self.default_vendor_driver = vendor_driver
        #: Machines keyed by (vendor_driver, hart count).
        self._machines: Dict[Tuple[bool, int], object] = {}
        self._tools: Dict[bool, Miniperf] = {}

    # -- lazy machine ownership ---------------------------------------------------------

    def _vendor_driver(self, vendor_driver: Optional[bool]) -> bool:
        if vendor_driver is None:
            return self.default_vendor_driver
        return vendor_driver

    def machine(self, vendor_driver: Optional[bool] = None) -> Machine:
        """The (lazily built, cached) single-hart machine for a vendor-driver
        setting."""
        return self.smp_machine(1, vendor_driver)

    def miniperf(self, vendor_driver: Optional[bool] = None) -> Miniperf:
        key = self._vendor_driver(vendor_driver)
        tool = self._tools.get(key)
        if tool is None:
            tool = Miniperf(self.machine(key))
            self._tools[key] = tool
        return tool

    def smp_machine(self, cpus: int, vendor_driver: Optional[bool] = None):
        """The (lazily built, cached) machine with *cpus* harts.

        One hart is a :class:`Machine`; more build a
        :class:`~repro.smp.MultiHartMachine`, which raises ``ValueError`` for
        a hart count the board cannot provide.
        """
        key = (self._vendor_driver(vendor_driver), cpus)
        machine = self._machines.get(key)
        if machine is None:
            if cpus == 1:
                machine = Machine(self.descriptor, vendor_driver=key[0])
            else:
                from repro.smp import MultiHartMachine
                machine = MultiHartMachine(self.descriptor, cpus,
                                           vendor_driver=key[0])
            self._machines[key] = machine
        return machine

    @property
    def platform(self) -> str:
        return self.descriptor.name

    def describe(self) -> str:
        return self.miniperf().describe()

    # -- running ------------------------------------------------------------------------

    def run(self, workload: Union[str, Workload],
            spec: Optional[ProfileSpec] = None) -> Run:
        """Profile *workload* according to *spec* and return a uniform Run.

        Every knob of the run lives in *spec*.  One phase loop -- stat,
        sampling, hotspots/flame graphs, roofline -- runs over a
        machine-specific backend.  ``spec.cpus`` selects it: 1 measures with
        ``miniperf`` on a single-hart :class:`Machine`; more harts route
        through the SMP subsystem (:mod:`repro.smp`) for system-wide
        counting, per-hart sample streams, merged, hart-labelled flame
        graphs and aggregate roofline roofs.

        ``spec.fast_dispatch`` (default on) selects the fast paths or every
        reference path -- engine, retirement and cache walk, for the PMU
        runs and the roofline phases alike.  Both backends honour it;
        results are bit-identical either way, only wall-clock time differs.

        Analyses that the platform cannot deliver (e.g. sampling on a part
        whose counters cannot raise overflow interrupts, a roofline for a
        workload with no compiled kernel, or more harts than the board has)
        are recorded in ``run.errors`` instead of aborting the whole run, so
        multi-platform comparisons degrade per-platform exactly the way the
        paper's Table 1 predicts.
        """
        spec = spec or ProfileSpec()
        workload = _resolve_workload(workload)
        vendor_driver = self._vendor_driver(spec.vendor_driver)
        tool = self.miniperf(vendor_driver)
        run = Run(
            platform=self.descriptor.name,
            workload=workload.name,
            spec=spec,
            cpus=spec.cpus,
            cpu_description=tool.describe(),
        )
        try:
            machine = self.smp_machine(spec.cpus, vendor_driver)
        except ValueError as error:
            # A hart count the board cannot provide degrades per-run (and
            # therefore per-platform in Session.compare), like any other
            # undeliverable analysis, under the analyses' own error keys.
            wanted = (("stat", spec.wants_stat),
                      ("sampling", spec.wants_sampling),
                      ("roofline", spec.wants_roofline))
            for key in sorted(key for key, on in wanted if on):
                run.errors[key] = str(error)
                run.failures[key] = error
            return run
        machine.set_cache_fast_path(spec.fast_dispatch)
        backend_type = _SmpBackend if spec.cpus > 1 else _HartBackend
        backend = backend_type(tool, machine, workload, spec)
        timings = {"compile": 0.0, "execute": 0.0, "analyses": 0.0}
        collector = _telemetry.RunCollector(platform=run.platform,
                                            workload=workload.name)
        collector.start(machine)

        with _telemetry.span("run", cat="run", platform=run.platform,
                             workload=workload.name, cpus=spec.cpus):
            if spec.wants_stat:
                run.stat = _measure(run, "stat", backend, backend.stat,
                                    timings)

            if spec.wants_sampling:
                run.recording = _measure(run, "sampling", backend,
                                         backend.record, timings)
                if run.recording is not None:
                    with _phase(timings, "analyses", "sampling"):
                        if "hotspots" in spec.analyses:
                            run.hotspots = backend.hotspots(run.recording)
                        if "flamegraph" in spec.analyses:
                            run.flame_cycles = backend.flame_graph(
                                run.recording, "samples")
                            run.flame_instructions = backend.flame_graph(
                                run.recording, "instructions")

            if spec.wants_roofline:
                if not workload.supports_roofline:
                    run.errors["roofline"] = (
                        f"workload {workload.name!r} ({workload.kind}) has no "
                        "compiled kernel to run the two-phase roofline flow on"
                    )
                else:
                    # Resolve the session-level vendor-driver default before the
                    # workload builds its own (fresh) roofline machines.
                    with _phase(timings, "analyses", "roofline"):
                        run.roofline = backend.roofline(workload.roofline(
                            self.descriptor,
                            spec.replace(vendor_driver=vendor_driver)))

        run.timings = timings
        collector.finish(schedule=run.schedule, timings=timings)
        return run

    # -- multi-platform comparison ------------------------------------------------------

    @classmethod
    def compare(cls, platforms: Sequence[PlatformLike],
                workload: Union[str, Workload],
                spec: Optional[ProfileSpec] = None,
                workers: int = 1,
                workload_params: Optional[Dict[str, object]] = None) -> Comparison:
        """Run *workload*/*spec* on every platform and compare the results.

        The first platform is the baseline; flame-graph diffs of every other
        platform against it are computed when both sides produced a cycles
        flame graph.

        Platforms are validated up front: an unknown name raises a
        ``ValueError`` listing the valid platform names, and a platform
        appearing twice raises as well (a platform diffed against itself is
        always a mistake).

        ``workers`` > 1 fans the per-platform runs out over a process pool
        (:func:`repro.api.executor.run_many`): every run is deterministic
        and isolated, so the Comparison is bit-identical to the serial one,
        in platform order, only faster.  Prefer naming the workload by its
        registry string (with ``workload_params`` for factory parameters)
        when parallelising -- names always pickle; concrete workload
        objects must be picklable to cross the process boundary.
        """
        descriptors = _validate_platforms(platforms)
        spec = spec or ProfileSpec()
        if isinstance(workload, str):
            name: Optional[str] = workload
            params = dict(workload_params or {})
            from repro.workloads import registry
            workload = registry.create(name, **params)
        else:
            if workload_params:
                raise ValueError(
                    "workload_params apply only when the workload is given "
                    "by registry name")
            name, params = None, {}
            workload = _resolve_workload(workload)
        if workers > 1:
            from repro.api.executor import RunRequest, run_many
            requests = [
                # A caller-supplied descriptor object travels whole, so a
                # customized platform is profiled as given; plain names stay
                # names (resolved registry-side in the worker).
                RunRequest(platform=(original if isinstance(original,
                                                            PlatformDescriptor)
                                     else descriptor.name),
                           workload=name if name is not None else workload,
                           params=params, spec=spec)
                for original, descriptor in zip(platforms, descriptors)
            ]
            runs = run_many(requests, workers=workers)
        else:
            runs: List[Run] = [
                cls(descriptor).run(workload, spec) for descriptor in descriptors
            ]
        return Comparison.build(workload.name, spec, runs)
