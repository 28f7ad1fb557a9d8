"""IRBuilder: convenience API for constructing IR.

Mirrors LLVM's ``IRBuilder``: it holds an insertion point (a basic block) and
exposes one method per instruction kind.  Values receive automatically
generated names unless the caller provides one, and the current source
location (set by the frontend) is stamped onto every created instruction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

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
    SourceLocation,
    Store,
)
from repro.compiler.ir.module import BasicBlock, Function
from repro.compiler.ir.types import FloatType, IntType, Type
from repro.compiler.ir.values import Constant, Value


class IRBuilder:
    """Builds instructions at an insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self._block = block
        self._location = SourceLocation()

    # -- insertion point ------------------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        if self._block is None:
            raise RuntimeError("IRBuilder has no insertion point")
        return self._block

    @property
    def function(self) -> Function:
        return self.block.parent

    def set_insertion_point(self, block: BasicBlock) -> None:
        self._block = block

    def set_location(self, filename: str, line: int, column: int = 0) -> None:
        self._location = SourceLocation(filename, line, column)

    @property
    def location(self) -> SourceLocation:
        return self._location

    def _emit(self, instruction: Instruction, name_hint: str = "") -> Instruction:
        if not instruction.type.is_void and not instruction.name:
            instruction.name = self.function.next_value_name(name_hint)
        instruction.location = self._location
        self.block.append(instruction)
        return instruction

    # -- constants --------------------------------------------------------------------

    @staticmethod
    def const(type_: Type, value) -> Constant:
        return Constant(type_, value)

    # -- arithmetic -------------------------------------------------------------------

    def binary(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._emit(BinaryOp(opcode, lhs, rhs, name), name_hint=opcode[:3])

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("sdiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("srem", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binary("fdiv", lhs, rhs, name)

    # -- comparisons -------------------------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> CompareOp:
        return self._emit(CompareOp("icmp", predicate, lhs, rhs, name), name_hint="cmp")

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> CompareOp:
        return self._emit(CompareOp("fcmp", predicate, lhs, rhs, name), name_hint="fcmp")

    # -- memory ------------------------------------------------------------------------

    def alloca(self, type_: Type, count: int = 1, name: str = "") -> Alloca:
        return self._emit(Alloca(type_, count, name), name_hint="ptr")

    def load(self, pointer: Value, name: str = "") -> Load:
        return self._emit(Load(pointer, name), name_hint="ld")

    def store(self, value: Value, pointer: Value) -> Store:
        return self._emit(Store(value, pointer))

    def gep(self, base: Value, index: Value, name: str = "") -> GetElementPtr:
        return self._emit(GetElementPtr(base, index, name), name_hint="gep")

    # -- control flow --------------------------------------------------------------------

    def br(self, condition: Value, then_block: BasicBlock,
           else_block: BasicBlock) -> Branch:
        return self._emit(Branch(condition, then_block, else_block))

    def jmp(self, target: BasicBlock) -> Jump:
        return self._emit(Jump(target))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._emit(Ret(value))

    def call(self, callee: Union[Function, str], args: Sequence[Value],
             return_type: Optional[Type] = None, name: str = "") -> Call:
        if return_type is None:
            if isinstance(callee, Function):
                return_type = callee.return_type
            else:
                raise ValueError("return_type is required when calling by name")
        return self._emit(Call(callee, args, return_type, name), name_hint="call")

    def phi(self, type_: Type, name: str = "") -> Phi:
        phi = Phi(type_, name or self.function.next_value_name("phi"))
        phi.location = self._location
        # Phis must stay at the top of the block.
        insert_at = 0
        for i, inst in enumerate(self.block.instructions):
            if isinstance(inst, Phi):
                insert_at = i + 1
            else:
                break
        self.block.insert(insert_at, phi)
        return phi

    # -- conversions -------------------------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> Cast:
        return self._emit(Cast(opcode, value, to_type, name), name_hint="cast")

    def sitofp(self, value: Value, to_type: FloatType, name: str = "") -> Cast:
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        return self.cast("fptosi", value, to_type, name)

    def sext(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        return self.cast("sext", value, to_type, name)

    def trunc(self, value: Value, to_type: IntType, name: str = "") -> Cast:
        return self.cast("trunc", value, to_type, name)

    def fpext(self, value: Value, to_type: FloatType, name: str = "") -> Cast:
        return self.cast("fpext", value, to_type, name)

    def fptrunc(self, value: Value, to_type: FloatType, name: str = "") -> Cast:
        return self.cast("fptrunc", value, to_type, name)

    def select(self, condition: Value, true_value: Value, false_value: Value,
               name: str = "") -> Select:
        return self._emit(Select(condition, true_value, false_value, name),
                          name_hint="sel")
