"""The two-phase roofline runner (the paper's Section 4.3 workflow).

Phase 1 (baseline): the program runs with instrumentation disabled; the
runtime records only begin/end timestamps per loop, so the measured cycles
are free of counting overhead.

Phase 2 (instrumented): the program runs again with instrumentation enabled;
the per-block counting calls accumulate bytes loaded/stored and integer/FP
operation counts (IR-derived, no PMU involvement).

The runner correlates the two executions per loop id and produces a
:class:`RooflinePoint` whose throughput uses phase-1 time and phase-2 counts,
plus the instrumentation-overhead figure the paper discusses in Section 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.compiler.frontend import compile_source
from repro.compiler.ir.module import Module
from repro.compiler.targets import target_for_platform
from repro.compiler.transforms import build_roofline_pipeline
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.roofline.machine import MachineRoofs, theoretical_roofs
from repro.roofline.model import RooflineModel, RooflinePoint
from repro.runtime import RooflineRuntime
from repro.vm import ExecutionEngine, Memory

#: Builds the argument list for one run; receives a fresh Memory every time.
ArgsBuilder = Callable[[Memory], Sequence[object]]


@dataclass
class LoopRooflineResult:
    """Per-loop correlation of the two phases."""

    loop_id: int
    label: str
    fp_ops: int
    int_ops: int
    loaded_bytes: int
    stored_bytes: int
    baseline_cycles: int
    instrumented_cycles: int

    @property
    def total_bytes(self) -> int:
        return self.loaded_bytes + self.stored_bytes

    @property
    def arithmetic_intensity(self) -> float:
        return self.fp_ops / self.total_bytes if self.total_bytes else 0.0

    @property
    def instrumentation_overhead(self) -> float:
        """instrumented / baseline cycle ratio (>= 1 in practice)."""
        if self.baseline_cycles == 0:
            return float("inf")
        return self.instrumented_cycles / self.baseline_cycles

    def gflops(self, frequency_hz: float) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        seconds = self.baseline_cycles / frequency_hz
        return self.fp_ops / seconds / 1e9

    def bandwidth_gbps(self, frequency_hz: float) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        seconds = self.baseline_cycles / frequency_hz
        return self.total_bytes / seconds / 1e9


@dataclass
class KernelRooflineResult:
    """Everything one roofline run produced for one kernel."""

    platform: str
    function: str
    roofs: MachineRoofs
    loops: List[LoopRooflineResult] = field(default_factory=list)
    baseline_machine_stats: Dict[str, object] = field(default_factory=dict)
    instrumented_machine_stats: Dict[str, object] = field(default_factory=dict)
    frequency_hz: float = 0.0
    #: Whole-kernel achieved GFLOP/s (all instrumented loops combined).
    kernel_gflops: float = 0.0
    kernel_arithmetic_intensity: float = 0.0

    def model(self) -> RooflineModel:
        model = RooflineModel(roofs=self.roofs)
        for loop in self.loops:
            model.add_point(RooflinePoint(
                name=loop.label,
                arithmetic_intensity=loop.arithmetic_intensity,
                gflops=loop.gflops(self.frequency_hz),
                fp_ops=loop.fp_ops,
                bytes_moved=loop.total_bytes,
                cycles=loop.baseline_cycles,
            ))
        return model

    def to_dict(self) -> Dict[str, object]:
        """Machine-consumable summary (``--json`` on the CLI)."""
        return {
            "platform": self.platform,
            "function": self.function,
            "frequency_hz": self.frequency_hz,
            "kernel_gflops": round(self.kernel_gflops, 6),
            "kernel_arithmetic_intensity": round(
                self.kernel_arithmetic_intensity, 6),
            "roofs": {
                "peak_gflops": self.roofs.peak_gflops,
                "bandwidth_gbps": dict(self.roofs.bandwidth_gbps),
                "source": self.roofs.source,
            },
            "loops": [
                {
                    "loop_id": loop.loop_id,
                    "label": loop.label,
                    "fp_ops": loop.fp_ops,
                    "int_ops": loop.int_ops,
                    "loaded_bytes": loop.loaded_bytes,
                    "stored_bytes": loop.stored_bytes,
                    "baseline_cycles": loop.baseline_cycles,
                    "instrumented_cycles": loop.instrumented_cycles,
                    "arithmetic_intensity": round(loop.arithmetic_intensity, 6),
                    "gflops": round(loop.gflops(self.frequency_hz), 6),
                    "instrumentation_overhead": (
                        None if loop.baseline_cycles == 0
                        else round(loop.instrumentation_overhead, 4)),
                }
                for loop in self.loops
            ],
        }

    def point_for_kernel(self) -> RooflinePoint:
        return RooflinePoint(
            name=self.function,
            arithmetic_intensity=self.kernel_arithmetic_intensity,
            gflops=self.kernel_gflops,
            fp_ops=sum(l.fp_ops for l in self.loops),
            bytes_moved=sum(l.total_bytes for l in self.loops),
            cycles=sum(l.baseline_cycles for l in self.loops),
        )


class RooflineRunner:
    """Coordinates compilation, the two executions and their correlation."""

    def __init__(self, descriptor: PlatformDescriptor,
                 enable_vectorizer: bool = True,
                 instrument_first: bool = False,
                 vendor_driver: bool = True,
                 fast_dispatch: bool = True):
        self.descriptor = descriptor
        self.roofs = theoretical_roofs(descriptor)
        self.enable_vectorizer = enable_vectorizer
        self.instrument_first = instrument_first
        # The two-phase flow is hardware-agnostic (no PMU events are opened),
        # but the machines it builds should still model the configured kernel.
        self.vendor_driver = vendor_driver
        # ``False`` runs both phases on every reference path -- interpreter
        # and per-op retirement -- with bit-identical results.
        self.fast_dispatch = fast_dispatch

    # -- compilation -------------------------------------------------------------------------

    def compile(self, source: str, filename: str = "kernel.c") -> Module:
        module = compile_source(source, filename)
        pipeline = build_roofline_pipeline(
            vector_width=self.descriptor.vector.sp_lanes(),
            enable_vectorizer=self.enable_vectorizer,
            instrument_first=self.instrument_first,
        )
        pipeline.run(module)
        return module

    # -- execution ----------------------------------------------------------------------------

    def _execute(self, module: Module, function: str, args_builder: ArgsBuilder,
                 instrumented: bool, repeats: int) -> (Machine, RooflineRuntime):
        machine = Machine(self.descriptor, vendor_driver=self.vendor_driver)
        target = target_for_platform(self.descriptor)
        task = machine.create_task(function)
        runtime = RooflineRuntime(module, machine, instrumented=instrumented)
        for _ in range(repeats):
            memory = Memory()
            args = list(args_builder(memory))
            engine = ExecutionEngine(module, machine, target, task=task,
                                     memory=memory, external_handlers=[runtime],
                                     fast_dispatch=self.fast_dispatch)
            engine.run(function, args)
        return machine, runtime

    def run_module(self, module: Module, function: str, args_builder: ArgsBuilder,
                   repeats: int = 1) -> KernelRooflineResult:
        """Run the two phases on an already-compiled (instrumented) module."""
        baseline_machine, baseline_runtime = self._execute(
            module, function, args_builder, instrumented=False, repeats=repeats)
        instrumented_machine, instrumented_runtime = self._execute(
            module, function, args_builder, instrumented=True, repeats=repeats)

        result = KernelRooflineResult(
            platform=self.descriptor.name,
            function=function,
            roofs=self.roofs,
            frequency_hz=self.descriptor.core.frequency_hz,
            baseline_machine_stats=baseline_machine.stats(),
            instrumented_machine_stats=instrumented_machine.stats(),
        )

        loop_ids = sorted({r.loop_id for r in instrumented_runtime.records})
        total_fp = 0
        total_bytes = 0
        total_baseline_cycles = 0
        for loop_id in loop_ids:
            instrumented_record = instrumented_runtime.merged_record(loop_id)
            baseline_record = baseline_runtime.merged_record(loop_id)
            if instrumented_record is None:
                continue
            baseline_cycles = baseline_record.cycles if baseline_record else 0
            label = instrumented_record.label()
            loop_result = LoopRooflineResult(
                loop_id=loop_id,
                label=label,
                fp_ops=instrumented_record.fp_ops,
                int_ops=instrumented_record.int_ops,
                loaded_bytes=instrumented_record.loaded_bytes,
                stored_bytes=instrumented_record.stored_bytes,
                baseline_cycles=baseline_cycles,
                instrumented_cycles=instrumented_record.cycles,
            )
            result.loops.append(loop_result)
            total_fp += loop_result.fp_ops
            total_bytes += loop_result.total_bytes
            total_baseline_cycles += baseline_cycles

        if total_baseline_cycles and total_fp:
            seconds = total_baseline_cycles / self.descriptor.core.frequency_hz
            result.kernel_gflops = total_fp / seconds / 1e9
        if total_bytes:
            result.kernel_arithmetic_intensity = total_fp / total_bytes
        return result

    def run_source(self, source: str, function: str, args_builder: ArgsBuilder,
                   repeats: int = 1, filename: str = "kernel.c") -> KernelRooflineResult:
        """Compile KernelC source and run the two-phase flow."""
        module = self.compile(source, filename)
        return self.run_module(module, function, args_builder, repeats=repeats)
