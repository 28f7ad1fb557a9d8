"""KernelC sources for the compiled workloads.

``MATMUL_TILED_SOURCE`` is, modulo the TILE_SIZE literal, the exact kernel
printed in the paper's Section 5.2.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    from repro.vm.memory import Memory

#: The paper's tiled matmul kernel (TILE_SIZE = 32).
MATMUL_TILED_SOURCE = """
void matmul_tiled(float* A, float* B, float* C, long n) {
  for (long ii = 0; ii < n; ii += 32) {
    for (long jj = 0; jj < n; jj += 32) {
      for (long kk = 0; kk < n; kk += 32) {
        for (long i = ii; i < ii + 32 && i < n; i++) {
          for (long j = jj; j < jj + 32 && j < n; j++) {
            float sum = C[i * n + j];
            for (long k = kk; k < kk + 32 && k < n; k++) {
              sum += A[i * n + k] * B[k * n + j];
            }
            C[i * n + j] = sum;
          }
        }
      }
    }
  }
}
"""

#: Untiled baseline used by the tiling ablation.
MATMUL_NAIVE_SOURCE = """
void matmul_naive(float* A, float* B, float* C, long n) {
  for (long i = 0; i < n; i++) {
    for (long j = 0; j < n; j++) {
      float sum = 0.0f;
      for (long k = 0; k < n; k++) {
        sum += A[i * n + k] * B[k * n + j];
      }
      C[i * n + j] = sum;
    }
  }
}
"""

DOT_PRODUCT_SOURCE = """
float dot(float* a, float* b, long n) {
  float sum = 0.0f;
  for (long i = 0; i < n; i++) {
    sum += a[i] * b[i];
  }
  return sum;
}
"""

STREAM_TRIAD_SOURCE = """
void triad(float* a, float* b, float* c, float scalar, long n) {
  for (long i = 0; i < n; i++) {
    a[i] = b[i] + scalar * c[i];
  }
}
"""

STENCIL_SOURCE = """
void stencil3(float* dst, float* src, long n) {
  for (long i = 1; i < n - 1; i++) {
    dst[i] = 0.25f * src[i - 1] + 0.5f * src[i] + 0.25f * src[i + 1];
  }
}
"""

MEMSET_SOURCE = """
void fill(float* dst, float value, long n) {
  for (long i = 0; i < n; i++) {
    dst[i] = value;
  }
}
"""


def _random_floats(count: int, seed: int) -> List[float]:
    generator = random.Random(seed)
    return [generator.random() for _ in range(count)]


# Args builders are functools.partial applications of module-level functions
# (not closures) so a CompiledKernelWorkload pickles cleanly -- the parallel
# run executor ships workload objects to worker processes.

def _matmul_args(n: int, seed: int, memory: Memory) -> Sequence[object]:
    a = memory.alloc_float_array(_random_floats(n * n, seed))
    b = memory.alloc_float_array(_random_floats(n * n, seed + 1))
    c = memory.alloc_float_array([0.0] * (n * n))
    return [a, b, c, n]


def matmul_args_builder(n: int, seed: int = 7):
    """Args builder for the matmul kernels: allocates A, B, C of size n x n."""
    return partial(_matmul_args, n, seed)


def _dot_args(n: int, seed: int, memory: Memory) -> Sequence[object]:
    a = memory.alloc_float_array(_random_floats(n, seed))
    b = memory.alloc_float_array(_random_floats(n, seed + 1))
    return [a, b, n]


def dot_args_builder(n: int, seed: int = 11):
    return partial(_dot_args, n, seed)


def _triad_args(n: int, scalar: float, seed: int,
                memory: Memory) -> Sequence[object]:
    a = memory.alloc_float_array([0.0] * n)
    b = memory.alloc_float_array(_random_floats(n, seed))
    c = memory.alloc_float_array(_random_floats(n, seed + 1))
    return [a, b, c, scalar, n]


def triad_args_builder(n: int, scalar: float = 3.0, seed: int = 13):
    return partial(_triad_args, n, scalar, seed)


def _stencil_args(n: int, seed: int, memory: Memory) -> Sequence[object]:
    dst = memory.alloc_float_array([0.0] * n)
    src = memory.alloc_float_array(_random_floats(n, seed))
    return [dst, src, n]


def stencil_args_builder(n: int, seed: int = 17):
    return partial(_stencil_args, n, seed)


def _memset_args(n: int, value: float, memory: Memory) -> Sequence[object]:
    dst = memory.alloc_float_array([0.0] * n)
    return [dst, value, n]


def memset_args_builder(n: int, value: float = 1.0):
    return partial(_memset_args, n, value)


def analytic_matmul_counts(n: int) -> dict:
    """Closed-form operation counts for an n x n x n matmul.

    Used by tests to check the IR-derived instrumentation counts: 2*n^3
    floating-point operations (one multiply and one add per inner iteration).
    """
    return {
        "fp_ops": 2 * n ** 3,
        "inner_iterations": n ** 3,
    }
