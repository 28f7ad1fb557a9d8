"""Retired-operation taxonomy.

The execution engine lowers compiler IR (or synthetic traces) into a stream of
*machine operations*.  A machine op is the unit the core timing models account
for and the unit the PMU observes.  It deliberately abstracts away encodings:
the paper's methodology never needs instruction bytes, only operation classes,
memory footprints and vector widths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence


class OpClass(enum.Enum):
    """Classes of retired operations, mirroring what hpmevent selectors count."""

    INT_ALU = "int_alu"          # add/sub/logic/shift/compare
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_FMA = "fp_fma"            # fused multiply-add: counts as 2 FLOPs
    FP_DIV = "fp_div"
    FP_MISC = "fp_misc"          # conversions, moves, compares
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"            # conditional branch
    JUMP = "jump"                # unconditional jump / jal
    CALL = "call"
    RET = "ret"
    CSR = "csr"
    ECALL = "ecall"
    FENCE = "fence"
    VECTOR_ALU = "vector_alu"
    VECTOR_FP = "vector_fp"
    VECTOR_FMA = "vector_fma"
    VECTOR_LOAD = "vector_load"
    VECTOR_STORE = "vector_store"
    NOP = "nop"


# Dense per-member index for table dispatch: the batched retirement path
# looks op metadata up in a list instead of hashing enum members, which is
# measurably cheaper on the retire hot loop.
for _index, _member in enumerate(OpClass):
    _member.index = _index
del _index, _member


#: Operation classes that access the memory hierarchy.
MEMORY_OP_CLASSES = frozenset(
    {OpClass.LOAD, OpClass.STORE, OpClass.VECTOR_LOAD, OpClass.VECTOR_STORE}
)

#: Operation classes that retire floating-point arithmetic.
FLOP_OP_CLASSES = frozenset(
    {
        OpClass.FP_ADD,
        OpClass.FP_MUL,
        OpClass.FP_FMA,
        OpClass.FP_DIV,
        OpClass.VECTOR_FP,
        OpClass.VECTOR_FMA,
    }
)

#: Operation classes that transfer control.
CONTROL_OP_CLASSES = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}
)

#: Vector operation classes.
VECTOR_OP_CLASSES = frozenset(
    {
        OpClass.VECTOR_ALU,
        OpClass.VECTOR_FP,
        OpClass.VECTOR_FMA,
        OpClass.VECTOR_LOAD,
        OpClass.VECTOR_STORE,
    }
)


@dataclass(frozen=True, slots=True, init=False)
class MachineOp:
    """A single retired machine operation.

    Ops are immutable values (equality and hashing compare every field), so
    one instance may be shared by every batch that retires it.

    Attributes
    ----------
    opclass:
        The operation class (see :class:`OpClass`).
    size_bytes:
        Bytes transferred for memory operations (0 otherwise).  For vector
        memory operations this is the *total* payload of the access.
    address:
        Effective address for memory operations, read by the cache model
        when the op retires on its own (``Machine.execute``).  ``None`` for
        non-memory ops.  A batched op names only its site (traces and
        generated code leave this ``None``): its address travels in the
        batch's ``mem_accesses`` (see :func:`with_addresses`).
    lanes:
        Number of vector lanes (1 for scalar ops).
    taken:
        For branches: whether the branch was taken.
    target:
        For branches/jumps/calls: the target identifier (used by the branch
        predictor to index its tables deterministically).
    pc:
        A synthetic program-counter value used to attribute samples.
    """

    opclass: OpClass
    size_bytes: int = 0
    address: Optional[int] = None
    lanes: int = 1
    taken: bool = False
    target: int = 0
    pc: int = 0

    def __init__(self, opclass: OpClass, size_bytes: int = 0,
                 address: Optional[int] = None, lanes: int = 1,
                 taken: bool = False, target: int = 0, pc: int = 0) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        # A frozen dataclass's own __init__ goes through object.__setattr__
        # per field; the slot descriptors' setters skip the attribute lookup
        # and about halve the cost of building an op (the reference
        # interpreter builds one per memory access).
        (set_opclass, set_size_bytes, set_address, set_lanes, set_taken,
         set_target, set_pc) = _FIELD_SETTERS
        set_opclass(self, opclass)
        set_size_bytes(self, size_bytes)
        set_address(self, address)
        set_lanes(self, lanes)
        set_taken(self, taken)
        set_target(self, target)
        set_pc(self, pc)

    @property
    def is_memory(self) -> bool:
        return self.opclass in MEMORY_OP_CLASSES

    @property
    def is_load(self) -> bool:
        return self.opclass in (OpClass.LOAD, OpClass.VECTOR_LOAD)

    @property
    def is_store(self) -> bool:
        return self.opclass in (OpClass.STORE, OpClass.VECTOR_STORE)

    @property
    def is_branch(self) -> bool:
        return self.opclass is OpClass.BRANCH

    @property
    def is_control(self) -> bool:
        return self.opclass in CONTROL_OP_CLASSES

    @property
    def is_vector(self) -> bool:
        return self.opclass in VECTOR_OP_CLASSES

    @property
    def flop_count(self) -> int:
        """Number of floating-point operations this op retires.

        Fused multiply-adds count as two FLOPs per lane, matching the
        convention used by the paper (and by Intel Advisor / ERT).
        """
        if self.opclass in (OpClass.FP_FMA, OpClass.VECTOR_FMA):
            return 2 * self.lanes
        if self.opclass in FLOP_OP_CLASSES:
            return self.lanes
        return 0

    @property
    def int_op_count(self) -> int:
        """Number of integer arithmetic operations this op retires."""
        if self.opclass in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV):
            return self.lanes
        if self.opclass is OpClass.VECTOR_ALU:
            return self.lanes
        return 0


#: The slot setters of :class:`MachineOp`, in field order.
_FIELD_SETTERS = tuple(getattr(MachineOp, f.name).__set__
                       for f in fields(MachineOp))


def with_addresses(ops: Sequence[MachineOp],
                   mem_accesses: Sequence[tuple]) -> List[MachineOp]:
    """A batch as per-op replay retires it: each memory op of positive size
    in *ops* rebuilt with the address of the next of *mem_accesses*."""
    addresses = (address for address, _, _ in mem_accesses)
    return [MachineOp(op.opclass, op.size_bytes, next(addresses), op.lanes,
                      op.taken, op.target, op.pc)
            if op.size_bytes > 0 and op.opclass in MEMORY_OP_CLASSES else op
            for op in ops]


def op_is_memory(opclass: OpClass) -> bool:
    """Return True when *opclass* accesses the memory hierarchy."""
    return opclass in MEMORY_OP_CLASSES


def op_is_flop(opclass: OpClass) -> bool:
    """Return True when *opclass* retires floating-point arithmetic."""
    return opclass in FLOP_OP_CLASSES


# Convenience constructors -------------------------------------------------


def load(size_bytes: int, address: Optional[int] = None, pc: int = 0) -> MachineOp:
    """Build a scalar load of *size_bytes*."""
    return MachineOp(OpClass.LOAD, size_bytes=size_bytes, address=address, pc=pc)


def store(size_bytes: int, address: Optional[int] = None, pc: int = 0) -> MachineOp:
    """Build a scalar store of *size_bytes*."""
    return MachineOp(OpClass.STORE, size_bytes=size_bytes, address=address, pc=pc)


def int_alu(pc: int = 0) -> MachineOp:
    """Build a scalar integer ALU op."""
    return MachineOp(OpClass.INT_ALU, pc=pc)


def fp_fma(pc: int = 0) -> MachineOp:
    """Build a scalar fused multiply-add."""
    return MachineOp(OpClass.FP_FMA, pc=pc)


def branch(taken: bool, target: int = 0, pc: int = 0) -> MachineOp:
    """Build a conditional branch."""
    return MachineOp(OpClass.BRANCH, taken=taken, target=target, pc=pc)


def vector_fma(lanes: int, pc: int = 0) -> MachineOp:
    """Build a vector fused multiply-add over *lanes* elements."""
    return MachineOp(OpClass.VECTOR_FMA, lanes=lanes, pc=pc)


def vector_load(size_bytes: int, lanes: int, address: Optional[int] = None,
                pc: int = 0) -> MachineOp:
    """Build a vector (unit-stride) load with total payload *size_bytes*."""
    return MachineOp(
        OpClass.VECTOR_LOAD, size_bytes=size_bytes, lanes=lanes, address=address, pc=pc
    )


def vector_store(size_bytes: int, lanes: int, address: Optional[int] = None,
                 pc: int = 0) -> MachineOp:
    """Build a vector (unit-stride) store with total payload *size_bytes*."""
    return MachineOp(
        OpClass.VECTOR_STORE, size_bytes=size_bytes, lanes=lanes, address=address, pc=pc
    )
