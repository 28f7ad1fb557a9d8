"""Textual IR printer.

Produces an LLVM-flavoured textual form that :mod:`repro.compiler.ir.parser`
can read back.  Round-tripping is covered by property-based tests, so the
printer is the single source of truth for the concrete syntax.
"""

from __future__ import annotations

from typing import List

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
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import FloatType
from repro.compiler.ir.values import Constant, Value


def _operand(value: Value) -> str:
    """Print an operand without its type."""
    if isinstance(value, Constant):
        if isinstance(value.type, FloatType):
            return repr(float(value.value))
        return str(value.value)
    return f"%{value.name}"


def _typed_operand(value: Value) -> str:
    """Print an operand with its type prefix."""
    return f"{value.type} {_operand(value)}"


def print_instruction(inst: Instruction) -> str:
    """Render one instruction."""
    if isinstance(inst, BinaryOp):
        return (
            f"%{inst.name} = {inst.opcode} {inst.type} "
            f"{_operand(inst.lhs)}, {_operand(inst.rhs)}"
        )
    if isinstance(inst, CompareOp):
        return (
            f"%{inst.name} = {inst.opcode} {inst.predicate} {inst.lhs.type} "
            f"{_operand(inst.lhs)}, {_operand(inst.rhs)}"
        )
    if isinstance(inst, Load):
        return f"%{inst.name} = load {inst.type}, {_typed_operand(inst.pointer)}"
    if isinstance(inst, Store):
        return f"store {_typed_operand(inst.value)}, {_typed_operand(inst.pointer)}"
    if isinstance(inst, Alloca):
        if inst.count != 1:
            return f"%{inst.name} = alloca {inst.allocated_type}, {inst.count}"
        return f"%{inst.name} = alloca {inst.allocated_type}"
    if isinstance(inst, GetElementPtr):
        return (
            f"%{inst.name} = getelementptr {inst.type.pointee}, "
            f"{_typed_operand(inst.base)}, {_typed_operand(inst.index)}"
        )
    if isinstance(inst, Branch):
        return (
            f"br i1 {_operand(inst.condition)}, "
            f"label %{inst.then_block.name}, label %{inst.else_block.name}"
        )
    if isinstance(inst, Jump):
        return f"jmp label %{inst.target.name}"
    if isinstance(inst, Ret):
        if inst.value is None:
            return "ret void"
        return f"ret {_typed_operand(inst.value)}"
    if isinstance(inst, Call):
        args = ", ".join(_typed_operand(a) for a in inst.operands)
        call_text = f"call {inst.type} @{inst.callee_name}({args})"
        if inst.type.is_void:
            return call_text
        return f"%{inst.name} = {call_text}"
    if isinstance(inst, Phi):
        pairs = ", ".join(
            f"[ {_operand(v)}, %{b.name} ]" for v, b in inst.incoming
        )
        return f"%{inst.name} = phi {inst.type} {pairs}"
    if isinstance(inst, Cast):
        return (
            f"%{inst.name} = {inst.opcode} {inst.value.type} "
            f"{_operand(inst.value)} to {inst.type}"
        )
    if isinstance(inst, Select):
        return (
            f"%{inst.name} = select i1 {_operand(inst.condition)}, "
            f"{_typed_operand(inst.true_value)}, {_typed_operand(inst.false_value)}"
        )
    raise TypeError(f"cannot print instruction of type {type(inst).__name__}")


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    for inst in block.instructions:
        lines.append(f"  {print_instruction(inst)}")
    return "\n".join(lines)


def _signature(function: Function) -> str:
    params = ", ".join(
        f"{arg.type} %{arg.name}" for arg in function.args
    )
    return f"{function.return_type} @{function.name}({params})"


def print_function(function: Function) -> str:
    if function.is_declaration:
        params = ", ".join(str(t) for t in function.ftype.param_types)
        return f"declare {function.return_type} @{function.name}({params})"
    lines: List[str] = [f"define {_signature(function)} {{"]
    for block in function.blocks:
        lines.append(print_block(block))
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    parts = [f'; module = "{module.name}"']
    for function in module:
        parts.append(print_function(function))
    return "\n\n".join(parts) + "\n"
