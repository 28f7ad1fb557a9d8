"""Roof-measuring microbenchmarks (the ERT / memset-benchmark stand-ins).

The paper takes its X60 memory roof from a published memset benchmark
(bytes/cycle) and its compute roof from first principles.  Here both are
*measured* against the machine model by running small KernelC kernels through
the execution engine: a streaming memset/copy kernel for bandwidth and an
unrolled FMA-chain kernel for peak FLOPs.  Because the same timing model runs
the real workloads, measured roofs and application dots are mutually
consistent -- which is the property a roofline plot actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compiler.frontend import compile_source
from repro.compiler.targets import target_for_platform
from repro.compiler.transforms import default_optimization_pipeline
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.roofline.machine import MachineRoofs
from repro.vm import ExecutionEngine, Memory

#: Streaming write kernel (memset-like): one store per element.
_MEMSET_SOURCE = """
void stream_set(float* dst, long n, float value) {
  for (long i = 0; i < n; i++) {
    dst[i] = value;
  }
}
"""

#: Peak-FLOP kernel: eight independent accumulator chains of fused-style
#: multiply-adds, the classical ERT inner loop.
_PEAK_SOURCE = """
float peak_flops(float* a, long n) {
  float c0 = 0.0f; float c1 = 0.1f; float c2 = 0.2f; float c3 = 0.3f;
  float c4 = 0.4f; float c5 = 0.5f; float c6 = 0.6f; float c7 = 0.7f;
  for (long i = 0; i < n; i++) {
    float x = a[i];
    c0 = c0 * 1.0001f + x;
    c1 = c1 * 1.0001f + x;
    c2 = c2 * 1.0001f + x;
    c3 = c3 * 1.0001f + x;
    c4 = c4 * 1.0001f + x;
    c5 = c5 * 1.0001f + x;
    c6 = c6 * 1.0001f + x;
    c7 = c7 * 1.0001f + x;
  }
  return c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7;
}
"""


@dataclass
class MicrobenchResult:
    """Raw measurements taken on the machine model."""

    platform: str
    memset_bytes_per_cycle: float
    peak_flops_per_cycle: float
    memset_gbps: float
    peak_gflops: float


def _run_kernel(descriptor: PlatformDescriptor, source: str, function: str,
                args_builder, vector_width: Optional[int] = None) -> Machine:
    machine = Machine(descriptor)
    target = target_for_platform(descriptor)
    width = vector_width if vector_width is not None else descriptor.vector.sp_lanes()
    module = compile_source(source, f"{function}.c")
    default_optimization_pipeline(vector_width=width).run(module)
    memory = Memory()
    args = args_builder(memory)
    engine = ExecutionEngine(module, machine, target, memory=memory)
    engine.run(function, args)
    return machine


def measure_roofs(descriptor: PlatformDescriptor, elements: int = 16384,
                  vector_width: Optional[int] = None) -> MachineRoofs:
    """Measure memory and compute roofs by running the microbenchmarks."""
    frequency = descriptor.core.frequency_hz

    def memset_args(memory: Memory):
        dst = memory.malloc(elements * 4)
        return [dst, elements, 1.0]

    memset_machine = _run_kernel(descriptor, _MEMSET_SOURCE, "stream_set",
                                 memset_args, vector_width)
    memset_bytes = elements * 4
    memset_bpc = memset_bytes / max(1, memset_machine.cycles)

    def peak_args(memory: Memory):
        a = memory.alloc_float_array([1.0] * 1024)
        return [a, 1024 * max(1, elements // 4096)]

    peak_machine = _run_kernel(descriptor, _PEAK_SOURCE, "peak_flops",
                               peak_args, vector_width)
    peak_flops = 16 * 1024 * max(1, elements // 4096)   # 8 chains x 2 flops
    peak_fpc = peak_flops / max(1, peak_machine.cycles)

    result = MicrobenchResult(
        platform=descriptor.name,
        memset_bytes_per_cycle=memset_bpc,
        peak_flops_per_cycle=peak_fpc,
        memset_gbps=memset_bpc * frequency / 1e9,
        peak_gflops=peak_fpc * frequency / 1e9,
    )
    return MachineRoofs(
        platform=descriptor.name,
        peak_gflops=result.peak_gflops,
        bandwidth_gbps={"DRAM": result.memset_gbps},
        source="measured (microbenchmarks)",
        frequency_hz=frequency,
    )
