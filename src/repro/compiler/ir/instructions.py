"""IR instructions.

The instruction set is a compact, LLVM-flavoured subset chosen so that the
Roofline instrumentation pass can see everything it needs to count: loads and
stores carry the byte size of the accessed type, arithmetic is split into
integer and floating-point opcodes, and control flow is explicit (``br``,
``jmp``, ``ret``) so loop analysis has a real CFG to work on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.ir.types import (
    IntType,
    PointerType,
    Type,
    VectorType,
    VOID,
    I1,
)
from repro.compiler.ir.values import Value


#: Integer binary opcodes.
INT_BINARY_OPS = frozenset(
    {"add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
     "and", "or", "xor", "shl", "lshr", "ashr"}
)
#: Floating-point binary opcodes.
FP_BINARY_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})
#: All binary opcodes.
BINARY_OPS = INT_BINARY_OPS | FP_BINARY_OPS

#: icmp predicates.
ICMP_PREDICATES = frozenset(
    {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
)
#: fcmp predicates (ordered comparisons only; unordered NaN handling is not
#: needed by any workload in this reproduction).
FCMP_PREDICATES = frozenset({"oeq", "one", "olt", "ole", "ogt", "oge"})

#: Cast opcodes.
CAST_OPS = frozenset(
    {"trunc", "zext", "sext", "fptrunc", "fpext", "fptosi", "sitofp",
     "bitcast", "ptrtoint", "inttoptr"}
)


class SourceLocation:
    """A (file, line, column) triple attached to instructions by the frontend.

    The instrumentation pass copies this into the ``LoopInfo`` handed to the
    runtime, which is how the final roofline report can say *which* source
    loop a dot on the plot corresponds to.
    """

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str = "", line: int = 0, column: int = 0):
        self.filename = filename
        self.line = line
        self.column = column

    def __bool__(self) -> bool:
        return bool(self.filename) or self.line > 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"SourceLocation({self})"


class Instruction(Value):
    """Base class of all instructions.

    An instruction is also a :class:`Value` (its result), enabling def-use
    chains.  Instructions keep an explicit operand list and register
    themselves as users of their operands.
    """

    opcode: str = "<abstract>"

    def __init__(self, type_: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type_, name)
        self.operands: List[Value] = []
        self.parent = None  # type: Optional["BasicBlock"]
        self.location = SourceLocation()
        self.metadata: Dict[str, object] = {}
        for operand in operands:
            self.add_operand(operand)

    # -- operand management -----------------------------------------------------

    def add_operand(self, value: Value) -> None:
        self.operands.append(value)
        value.add_use(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_use(self)
        self.operands[index] = value
        value.add_use(self)

    def replace_uses_of(self, old: Value, new: Value) -> int:
        """Replace every occurrence of *old* in this instruction's operands."""
        replaced = 0
        for i, operand in enumerate(self.operands):
            if operand is old:
                self.set_operand(i, new)
                replaced += 1
        return replaced

    def drop_operands(self) -> None:
        for operand in self.operands:
            operand.remove_use(self)
        self.operands.clear()

    # -- classification -----------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Branch, Jump, Ret))

    @property
    def has_side_effects(self) -> bool:
        return isinstance(self, (Store, Call, Ret, Branch, Jump))

    def successors(self) -> List["BasicBlock"]:
        """Successor blocks (empty for non-terminators and ``ret``)."""
        return []

    def __repr__(self) -> str:
        ops = ", ".join(o.short_name() for o in self.operands)
        prefix = f"%{self.name} = " if self.name and not self.type.is_void else ""
        return f"{prefix}{self.opcode} {ops}"


class BinaryOp(Instruction):
    """Integer and floating-point binary arithmetic."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"binary op {opcode} operand types differ: {lhs.type} vs {rhs.type}"
            )
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    @property
    def is_float_op(self) -> bool:
        return self.opcode in FP_BINARY_OPS

    @property
    def element_count(self) -> int:
        """Number of scalar lanes this op processes (1 for scalar types)."""
        return self.type.count if isinstance(self.type, VectorType) else 1


class CompareOp(Instruction):
    """Integer (``icmp``) and floating-point (``fcmp``) comparisons."""

    def __init__(self, opcode: str, predicate: str, lhs: Value, rhs: Value,
                 name: str = ""):
        if opcode not in ("icmp", "fcmp"):
            raise ValueError("compare opcode must be icmp or fcmp")
        preds = ICMP_PREDICATES if opcode == "icmp" else FCMP_PREDICATES
        if predicate not in preds:
            raise ValueError(f"invalid {opcode} predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"{opcode} operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(I1, [lhs, rhs], name)
        self.opcode = opcode
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return (
            f"%{self.name} = {self.opcode} {self.predicate} "
            f"{self.lhs.short_name()}, {self.rhs.short_name()}"
        )


class Load(Instruction):
    """Load a value of the pointee type from a pointer."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"load requires a pointer operand, got {pointer.type}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def loaded_bytes(self) -> int:
        return self.type.size_bytes()


class Store(Instruction):
    """Store a value through a pointer."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"store requires a pointer operand, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: storing {value.type} through {pointer.type}"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def stored_bytes(self) -> int:
        return self.value.type.size_bytes()


class Alloca(Instruction):
    """Stack allocation of one value (or a small array) of a given type."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: int = 1, name: str = ""):
        if count < 1:
            raise ValueError("alloca count must be >= 1")
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.count = count

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_type.size_bytes() * self.count


class GetElementPtr(Instruction):
    """Pointer arithmetic: ``base + index * sizeof(pointee)``.

    A single-index form is sufficient because the kernel language flattens
    multi-dimensional indexing explicitly (``A[i * n + k]``), exactly as the
    paper's example kernel does.
    """

    opcode = "getelementptr"

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not isinstance(base.type, PointerType):
            raise TypeError(f"getelementptr requires a pointer base, got {base.type}")
        if not isinstance(index.type, IntType):
            raise TypeError(f"getelementptr index must be an integer, got {index.type}")
        super().__init__(base.type, [base, index], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def element_bytes(self) -> int:
        return self.type.pointee.size_bytes()


class Branch(Instruction):
    """Conditional branch."""

    opcode = "br"

    def __init__(self, condition: Value, then_block: "BasicBlock",
                 else_block: "BasicBlock"):
        if condition.type != I1:
            raise TypeError(f"branch condition must be i1, got {condition.type}")
        super().__init__(VOID, [condition])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def condition(self) -> Value:
        return self.operands[0]

    def successors(self) -> List["BasicBlock"]:
        return [self.then_block, self.else_block]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.then_block is old:
            self.then_block = new
        if self.else_block is old:
            self.else_block = new

    def __repr__(self) -> str:
        return (
            f"br {self.condition.short_name()}, "
            f"label %{self.then_block.name}, label %{self.else_block.name}"
        )


class Jump(Instruction):
    """Unconditional branch."""

    opcode = "jmp"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [])
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new

    def __repr__(self) -> str:
        return f"jmp label %{self.target.name}"


class Ret(Instruction):
    """Return (optionally with a value)."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def __repr__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.short_name()}"


class Call(Instruction):
    """Direct call to a function (by object or by name for runtime externals)."""

    opcode = "call"

    def __init__(self, callee, args: Sequence[Value], return_type: Type,
                 name: str = ""):
        super().__init__(return_type, list(args), name)
        self.callee = callee

    @property
    def callee_name(self) -> str:
        return self.callee if isinstance(self.callee, str) else self.callee.name

    @property
    def args(self) -> List[Value]:
        return list(self.operands)

    def __repr__(self) -> str:
        args = ", ".join(a.short_name() for a in self.operands)
        prefix = f"%{self.name} = " if self.name and not self.type.is_void else ""
        return f"{prefix}call {self.type} @{self.callee_name}({args})"


class Phi(Instruction):
    """SSA phi node."""

    opcode = "phi"

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, [], name)
        self.incoming: List[Tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type {value.type} does not match node type {self.type}"
            )
        self.add_operand(value)
        self.incoming.append((value, block))

    def incoming_for(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"[ {v.short_name()}, %{b.name} ]" for v, b in self.incoming
        )
        return f"%{self.name} = phi {self.type} {pairs}"


class Cast(Instruction):
    """Type conversions (trunc/zext/sext/fptosi/sitofp/bitcast/...)."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return (
            f"%{self.name} = {self.opcode} {self.value.type} "
            f"{self.value.short_name()} to {self.type}"
        )


class Select(Instruction):
    """``select cond, a, b`` -- the ternary operator."""

    opcode = "select"

    def __init__(self, condition: Value, true_value: Value, false_value: Value,
                 name: str = ""):
        if condition.type != I1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arm types differ")
        super().__init__(true_value.type, [condition, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]
