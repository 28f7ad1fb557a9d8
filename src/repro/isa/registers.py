"""Architectural register files.

The execution engine is IR-level rather than binary-level, so these register
files mostly matter for two things: (1) vector state (``VLEN``) so that the
RVV lowering and the roofline peak calculator agree about lane counts, and
(2) carrying the synthetic ABI used when sampling interrupts capture register
context, as the Linux perf machinery does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


MASK64 = (1 << 64) - 1

#: RISC-V integer ABI register names (x0..x31).
INT_REG_NAMES = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
]

#: RISC-V floating-point ABI register names (f0..f31).
FP_REG_NAMES = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
]


class IntRegisterFile:
    """The 32 general-purpose integer registers.

    ``x0`` is hard-wired to zero, as on real hardware; writes to it are
    silently discarded.
    """

    def __init__(self) -> None:
        self._regs: List[int] = [0] * 32

    def read(self, index: int) -> int:
        self._check_index(index)
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._check_index(index)
        if index == 0:
            return
        self._regs[index] = value & MASK64

    def read_by_name(self, name: str) -> int:
        return self.read(INT_REG_NAMES.index(name))

    def write_by_name(self, name: str, value: int) -> None:
        self.write(INT_REG_NAMES.index(name), value)

    def snapshot(self) -> Dict[str, int]:
        """Return a name -> value mapping, as captured in a perf sample."""
        return {name: self._regs[i] for i, name in enumerate(INT_REG_NAMES)}

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < 32:
            raise IndexError(f"integer register index out of range: {index}")


class FpRegisterFile:
    """The 32 floating-point registers (f0..f31)."""

    def __init__(self) -> None:
        self._regs: List[float] = [0.0] * 32

    def read(self, index: int) -> float:
        self._check_index(index)
        return self._regs[index]

    def write(self, index: int, value: float) -> None:
        self._check_index(index)
        self._regs[index] = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {name: self._regs[i] for i, name in enumerate(FP_REG_NAMES)}

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < 32:
            raise IndexError(f"fp register index out of range: {index}")


@dataclass
class VectorRegisterFile:
    """The RVV vector register state.

    Only the configuration that matters for performance modelling is kept:
    ``vlen_bits`` (the hardware vector length) and the currently configured
    ``sew`` (selected element width) and ``lmul`` (register grouping), from
    which the number of usable lanes is derived -- the same arithmetic the
    paper uses for the X60's theoretical compute roof (256-bit VLEN, 32-bit
    elements -> 8 single-precision lanes).
    """

    vlen_bits: int = 256
    sew_bits: int = 32
    lmul: int = 1

    def __post_init__(self) -> None:
        if self.vlen_bits <= 0 or self.vlen_bits % 8 != 0:
            raise ValueError("vlen_bits must be a positive multiple of 8")
        if self.sew_bits not in (8, 16, 32, 64):
            raise ValueError("sew_bits must be one of 8, 16, 32, 64")
        if self.lmul not in (1, 2, 4, 8):
            raise ValueError("lmul must be one of 1, 2, 4, 8")

    @property
    def lanes(self) -> int:
        """Number of elements processed per vector instruction (vlmax)."""
        return (self.vlen_bits * self.lmul) // self.sew_bits

    def configure(self, sew_bits: int, lmul: int = 1) -> int:
        """Model ``vsetvli``: set element width / grouping, return vlmax."""
        if sew_bits not in (8, 16, 32, 64):
            raise ValueError("sew_bits must be one of 8, 16, 32, 64")
        if lmul not in (1, 2, 4, 8):
            raise ValueError("lmul must be one of 1, 2, 4, 8")
        self.sew_bits = sew_bits
        self.lmul = lmul
        return self.lanes
