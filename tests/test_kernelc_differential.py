"""KernelC-level differential: frontend output, generated code vs reference.

``tests/test_engine_codegen.py`` feeds the engine seeded, hand-built IR.
This suite feeds it what the KernelC frontend emits at -O0 -- every local
in an ``alloca`` slot, zero-initialised at its declaration, most of them
kept in Python locals by the generated code -- through the same pipeline
the workloads use (``compile_source_cached`` on the X60, with and without
the vectorizer).  A small fixed set of programs covers nested loops with
``&&`` conditions, ``float`` and ``double`` accumulators, ``int`` and
``long`` locals (wrapping), declarations inside loop bodies, a recursive
function and a helper called in a loop.

Each program runs on both dispatch paths on a fresh X60 with its sampling
group armed; the return value, heap and stack bytes, ``ExecutionStats``,
event totals, cycles, instructions and the sample stream must be identical.
"""

from dataclasses import replace

import pytest

from repro.compiler.cache import compile_source_cached
from repro.compiler.targets import target_for_platform
from repro.cpu.events import HwEvent
from repro.kernel.perf_event import PerfEventAttr, ReadFormat, SampleType
from repro.platforms import Machine, spacemit_x60
from repro.vm import ExecutionEngine, Memory

N = 12
STACK_BYTES = 1 << 14

NESTED = """
double nested(float* a, double* d, long n) {
  double total = 0.0;
  float fsum = 0.0f;
  int hits = 0;
  long mixed = 1;
  for (long i = 0; i < n && total < 100000.0; i++) {
    long j = 0;
    while (j < n && j <= i) {
      float x = a[i] * a[j] + 0.1f;
      fsum += x;
      total += x * 0.5;
      if (x > 1.0f && j % 2 == 0) {
        hits += 1;
      }
      mixed = mixed * 1103515245 + j;
      j++;
    }
    d[i] = total + fsum;
  }
  int wrapped = 2147483647;
  wrapped += hits;
  return total + fsum + hits + wrapped + mixed % 1000;
}
"""

RECURSIVE = """
long fib(long n) {
  if (n < 2) {
    return n;
  }
  long left = fib(n - 1);
  long right = fib(n - 2);
  return left + right;
}

long recursive(long* out, long n) {
  long total = 0;
  for (long i = 0; i < n; i++) {
    long f = fib(i);
    out[i] = f;
    total += f;
  }
  return total;
}
"""

HELPER_IN_LOOP = """
float scale(float x, int k) {
  float y = x;
  for (int i = 0; i < k; i++) {
    y = y * 1.5f - 0.25f;
  }
  return y;
}

float helper_in_loop(float* a, float* b, long n) {
  float acc = 0.0f;
  double dacc = 0.0;
  for (long i = 0; i < n; i++) {
    int k = 3;
    float v = scale(a[i], k);
    b[i] = v;
    acc += v;
    dacc += v * 0.001;
  }
  return acc + dacc;
}
"""

PROGRAMS = {
    "nested": (NESTED, "float", "double"),
    "recursive": (RECURSIVE, "long", None),
    "helper_in_loop": (HELPER_IN_LOOP, "float", "float"),
}


def _buffers(memory, first, second):
    """The program's heap arguments (*first* filled, *second* zeroed) and
    the heap's end."""
    if first == "long":
        buffers = [memory.malloc(8 * N)]
        return buffers, buffers[0] + 8 * N
    double = second == "double"
    buffers = [memory.alloc_float_array([0.25 * i - 1.1 for i in range(N)]),
               memory.alloc_float_array([0.0] * N, double=double)]
    return buffers, buffers[1] + (8 if double else 4) * N


def _observe(name: str, vectorize: bool, fast: bool) -> dict:
    source, first, second = PROGRAMS[name]
    descriptor = spacemit_x60()
    module = compile_source_cached(source, f"{name}.c", descriptor, vectorize)
    machine = Machine(descriptor)
    task = machine.create_task(name)
    # The X60's cycle counter cannot interrupt: sample on the mode-cycle
    # leader and read the cycles in its group (the paper's workaround).
    attr = PerfEventAttr(event=HwEvent.U_MODE_CYCLE, sample_period=97,
                         sample_type=frozenset({SampleType.IP, SampleType.TIME,
                                                SampleType.CALLCHAIN,
                                                SampleType.READ}),
                         read_format=frozenset({ReadFormat.GROUP}))
    fd = machine.perf.perf_event_open(attr, task)
    machine.perf.perf_event_open(PerfEventAttr(event=HwEvent.CYCLES), task,
                                 group_fd=fd)
    ring = machine.perf.mmap(fd)
    machine.perf.enable(fd)
    memory = Memory()
    buffers, heap_end = _buffers(memory, first, second)
    engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                             task=task, memory=memory, fast_dispatch=fast)
    result = engine.run(name, buffers + [N])
    machine.perf.disable(fd)
    read = machine.perf.read(fd)
    return {
        "result": result,
        "heap": memory.read_bytes(Memory.HEAP_BASE, heap_end - Memory.HEAP_BASE),
        "stack": memory.read_bytes(Memory.STACK_BASE, STACK_BYTES),
        "stats": engine.stats,
        "totals": machine.event_totals(),
        "cycles": machine.cycles,
        "instructions": machine.instructions,
        "read": (read.value, read.time_enabled, read.time_running, read.group),
        "samples": [replace(s, pid=0, tid=0) for s in ring.drain()],
    }


@pytest.mark.parametrize("vectorize", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kernelc_program_matches_reference(name, vectorize):
    fast = _observe(name, vectorize, True)
    reference = _observe(name, vectorize, False)
    for key in fast:
        assert fast[key] == reference[key], (name, key)
    assert fast["samples"] and fast["stats"].ir_instructions > 1000
    assert any(fast["stack"])       # the slots' values reached the stack
