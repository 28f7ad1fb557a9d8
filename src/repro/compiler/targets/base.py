"""The target-lowering interface and shared lowering logic."""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

from repro.compiler.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CompareOp,
    GetElementPtr,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.isa.machine_ops import MachineOp, OpClass

#: IR binary opcodes -> scalar machine op class.
_INT_OPCLASS = {
    "add": OpClass.INT_ALU, "sub": OpClass.INT_ALU, "and": OpClass.INT_ALU,
    "or": OpClass.INT_ALU, "xor": OpClass.INT_ALU, "shl": OpClass.INT_ALU,
    "lshr": OpClass.INT_ALU, "ashr": OpClass.INT_ALU,
    "mul": OpClass.INT_MUL,
    "sdiv": OpClass.INT_DIV, "udiv": OpClass.INT_DIV,
    "srem": OpClass.INT_DIV, "urem": OpClass.INT_DIV,
}
_FP_OPCLASS = {
    "fadd": OpClass.FP_ADD, "fsub": OpClass.FP_ADD,
    "fmul": OpClass.FP_MUL,
    "fdiv": OpClass.FP_DIV, "frem": OpClass.FP_DIV,
}
_FP_TO_VECTOR = {
    OpClass.FP_ADD: OpClass.VECTOR_FP,
    OpClass.FP_MUL: OpClass.VECTOR_FP,
    OpClass.FP_FMA: OpClass.VECTOR_FMA,
    OpClass.FP_DIV: OpClass.VECTOR_FP,
}


class TargetLowering:
    """Maps one executed IR instruction to the machine ops it retires.

    Parameters that differ across concrete targets:

    * ``name`` / ``march`` -- identification (``rv64gcv``, ``x86-64-v3``...);
    * ``vector_sp_lanes`` -- single-precision lanes per vector instruction;
    * ``supports_vector`` -- whether vector annotations are honoured at all
      (a ``rv64gc`` build ignores them, modelling a scalar-only compile);
    * ``address_gen_ops`` -- how many integer ops a ``getelementptr`` costs
      (x86 folds simple address arithmetic into the memory operand; RISC-V
      needs explicit shifts/adds);
    * ``call_overhead_ops`` -- extra ALU work per call for argument setup.
    """

    name = "generic"
    march = "generic"
    vector_sp_lanes = 1
    supports_vector = False
    address_gen_ops = 1
    call_overhead_ops = 1

    def __init__(self) -> None:
        # Memoized lowering results for the execution engine's fast dispatch,
        # keyed weakly by instruction so a long-lived target does not pin
        # modules (and so a recycled object id can never alias a stale entry).
        self._lower_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- main entry --------------------------------------------------------------------

    def lower(self, inst: Instruction, address: Optional[int] = None,
              taken: bool = False, pc: int = 0,
              vector_width: int = 0) -> List[MachineOp]:
        """Machine ops retired by one dynamic execution of *inst*.

        ``vector_width`` > 1 signals that the instruction belongs to a
        vectorised loop body and that this execution closes a group of
        ``vector_width`` iterations (the engine calls with 0 for the
        intermediate iterations, and drops the result entirely for targets
        without vector support).
        """
        if isinstance(inst, BinaryOp):
            return self._lower_binary(inst, pc, vector_width)
        if isinstance(inst, CompareOp):
            opclass = OpClass.INT_ALU if inst.opcode == "icmp" else OpClass.FP_MISC
            return [MachineOp(opclass, pc=pc)]
        if isinstance(inst, Load):
            if inst.metadata.get("mperf.reg_promoted"):
                return []  # register read in the modelled -O3 build
            return self._lower_memory(inst.loaded_bytes, False, address, pc, vector_width)
        if isinstance(inst, Store):
            if inst.metadata.get("mperf.reg_promoted"):
                return []  # register write in the modelled -O3 build
            return self._lower_memory(inst.stored_bytes, True, address, pc, vector_width)
        if isinstance(inst, GetElementPtr):
            return [MachineOp(OpClass.INT_ALU, pc=pc)] * self.address_gen_ops
        if isinstance(inst, Alloca):
            return [MachineOp(OpClass.INT_ALU, pc=pc)]
        if isinstance(inst, Branch):
            # The predictor-indexing target is derived from the branch's pc,
            # never from id(): object addresses differ between processes and
            # would make predictor aliasing (and therefore every cycle count)
            # irreproducible across runs of the same program.
            return [MachineOp(OpClass.BRANCH, taken=taken,
                              target=(pc >> 2) & 0xFFFF, pc=pc)]
        if isinstance(inst, Jump):
            return [MachineOp(OpClass.JUMP, taken=True, pc=pc)]
        if isinstance(inst, Ret):
            return [MachineOp(OpClass.RET, taken=True, pc=pc)]
        if isinstance(inst, Call):
            ops = [MachineOp(OpClass.INT_ALU, pc=pc)] * self.call_overhead_ops
            ops.append(MachineOp(OpClass.CALL, taken=True, pc=pc))
            return ops
        if isinstance(inst, Cast):
            if inst.opcode in ("sitofp", "fptosi", "fpext", "fptrunc"):
                return [MachineOp(OpClass.FP_MISC, pc=pc)]
            if inst.opcode == "bitcast":
                return []
            return [MachineOp(OpClass.INT_ALU, pc=pc)]
        if isinstance(inst, (Phi, Select)):
            return [MachineOp(OpClass.INT_ALU, pc=pc)] if isinstance(inst, Select) else []
        return [MachineOp(OpClass.NOP, pc=pc)]

    def lower_cached(self, inst: Instruction, taken: bool = False, pc: int = 0,
                     vector_width: int = 0) -> Tuple[MachineOp, ...]:
        """Memoized :meth:`lower` for the engine's predecode phase.

        The result is cached per ``(instruction, taken, vector_width)``;
        memory instructions are lowered with ``address=None`` to at most one
        memory op, which the engine retires as a template while the
        effective address travels beside it.  Lowerings must therefore be
        pure functions of those keys, which every built-in target satisfies.
        """
        per_inst = self._lower_cache.get(inst)
        if per_inst is None:
            per_inst = {}
            self._lower_cache[inst] = per_inst
        key = (taken, vector_width)
        ops = per_inst.get(key)
        if ops is None:
            ops = tuple(self.lower(inst, address=None, taken=taken, pc=pc,
                                   vector_width=vector_width))
            per_inst[key] = ops
        return ops

    # -- pieces -------------------------------------------------------------------------

    def _lower_binary(self, inst: BinaryOp, pc: int, vector_width: int) -> List[MachineOp]:
        if inst.is_float_op:
            scalar_class = _FP_OPCLASS[inst.opcode]
            if vector_width > 1 and self.supports_vector:
                lanes = min(vector_width, self.vector_sp_lanes)
                return [MachineOp(_FP_TO_VECTOR[scalar_class], lanes=lanes, pc=pc)]
            return [MachineOp(scalar_class, pc=pc)]
        scalar_class = _INT_OPCLASS[inst.opcode]
        if vector_width > 1 and self.supports_vector:
            lanes = min(vector_width, self.vector_sp_lanes)
            return [MachineOp(OpClass.VECTOR_ALU, lanes=lanes, pc=pc)]
        return [MachineOp(scalar_class, pc=pc)]

    def _lower_memory(self, size_bytes: int, is_store: bool, address: Optional[int],
                      pc: int, vector_width: int) -> List[MachineOp]:
        if vector_width > 1 and self.supports_vector:
            lanes = min(vector_width, self.vector_sp_lanes)
            opclass = OpClass.VECTOR_STORE if is_store else OpClass.VECTOR_LOAD
            return [MachineOp(opclass, size_bytes=size_bytes * lanes, lanes=lanes,
                              address=address, pc=pc)]
        opclass = OpClass.STORE if is_store else OpClass.LOAD
        return [MachineOp(opclass, size_bytes=size_bytes, address=address, pc=pc)]

    # -- identification -----------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}(march={self.march!r})"
