"""IR verifier.

Structural and type checks run after construction, after parsing and after
every transformation pass (the pass manager verifies by default), so a broken
pass fails loudly instead of producing silently wrong instrumentation counts.
"""

from __future__ import annotations

import os
from typing import List, Set

from repro.compiler.ir.instructions import (
    BinaryOp,
    Call,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.values import Argument, Constant, UndefValue, Value

#: Environment flag forcing per-pass IR verification in every pipeline --
#: the one switch for it outside an explicit ``PassManager(verify_each=)``.
VERIFY_IR_ENV = "REPRO_VERIFY_IR"


def verify_ir_requested() -> bool:
    """Whether the :data:`VERIFY_IR_ENV` debug flag is set (and truthy)."""
    return os.environ.get(VERIFY_IR_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


class VerificationError(Exception):
    """Raised when a module fails verification."""

    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__(
            "IR verification failed:\n" + "\n".join(f"  - {e}" for e in errors)
        )


def _describe(block: BasicBlock, inst: Instruction) -> str:
    """Name an instruction in an error message.

    Value-producing instructions are named by their SSA result; void ones
    (stores, branches) by opcode and position in the block, which is stable
    and enough to find the line in printed IR.
    """
    if inst.name:
        return f"%{inst.name} ({inst.opcode})"
    try:
        position = block.instructions.index(inst)
    except ValueError:
        position = -1
    return f"{inst.opcode} (instruction #{position})"


def _predecessors(function: Function):
    preds = {block: [] for block in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            if successor in preds:
                preds[successor].append(block)
    return preds


def verify_function(function: Function) -> List[str]:
    """Return a list of problems found in *function* (empty when clean)."""
    errors: List[str] = []
    if function.is_declaration:
        return errors

    blocks_in_function = set(function.blocks)
    defined_values: Set[Value] = set(function.args)
    for block in function.blocks:
        for inst in block.instructions:
            defined_values.add(inst)

    # Every block: exactly one terminator, at the end.
    for block in function.blocks:
        if not block.instructions:
            errors.append(f"{function.name}/{block.name}: empty basic block")
            continue
        terminators = [i for i in block.instructions if i.is_terminator]
        if not terminators:
            errors.append(f"{function.name}/{block.name}: missing terminator")
        elif len(terminators) > 1:
            errors.append(f"{function.name}/{block.name}: multiple terminators")
        elif block.instructions[-1] is not terminators[0]:
            errors.append(
                f"{function.name}/{block.name}: terminator is not the last instruction"
            )
        for successor in block.successors():
            if successor not in blocks_in_function:
                errors.append(
                    f"{function.name}/{block.name}: branch to block "
                    f"{successor.name!r} not in function"
                )

    preds = _predecessors(function)

    for block in function.blocks:
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    errors.append(
                        f"{function.name}/{block.name}: phi %{inst.name} is not at "
                        "the top of its block"
                    )
                incoming_blocks = {b for _, b in inst.incoming}
                pred_set = set(preds.get(block, []))
                if incoming_blocks != pred_set:
                    errors.append(
                        f"{function.name}/{block.name}: phi %{inst.name} incoming "
                        f"blocks {sorted(b.name for b in incoming_blocks)} do not "
                        f"match predecessors {sorted(b.name for b in pred_set)}"
                    )
            else:
                seen_non_phi = True

            for operand in inst.operands:
                if isinstance(operand, (Constant, UndefValue, Argument, BasicBlock)):
                    continue
                if isinstance(operand, Function):
                    continue
                if isinstance(operand, Instruction) and operand not in defined_values:
                    errors.append(
                        f"{function.name}/{block.name}: "
                        f"{_describe(block, inst)} uses value "
                        f"%{operand.name} defined outside the function"
                    )

            errors.extend(_check_types(function, block, inst))

    # Return type consistency.
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if function.return_type.is_void and term.value is not None:
                errors.append(
                    f"{function.name}: returns a value from a void function"
                )
            elif not function.return_type.is_void:
                if term.value is None:
                    errors.append(f"{function.name}: missing return value")
                elif term.value.type != function.return_type:
                    errors.append(
                        f"{function.name}: return type mismatch "
                        f"({term.value.type} vs {function.return_type})"
                    )
    return errors


def _check_types(function: Function, block: BasicBlock, inst: Instruction) -> List[str]:
    errors: List[str] = []
    where = f"{function.name}/{block.name}"
    if isinstance(inst, BinaryOp):
        if inst.lhs.type != inst.rhs.type:
            errors.append(
                f"{where}: binary op operand type mismatch in "
                f"{_describe(block, inst)}"
            )
        if inst.is_float_op and not (
            inst.type.is_float
            or (inst.type.is_vector and inst.type.element.is_float)
        ):
            errors.append(
                f"{where}: fp opcode {inst.opcode} on non-float type in "
                f"{_describe(block, inst)}"
            )
        if not inst.is_float_op and inst.type.is_float:
            errors.append(
                f"{where}: integer opcode {inst.opcode} on float type in "
                f"{_describe(block, inst)}"
            )
    elif isinstance(inst, Load):
        if not inst.pointer.type.is_pointer:
            errors.append(f"{where}: load from non-pointer in %{inst.name}")
    elif isinstance(inst, Store):
        if not inst.pointer.type.is_pointer:
            errors.append(
                f"{where}: store through non-pointer in {_describe(block, inst)}"
            )
        elif inst.pointer.type.pointee != inst.value.type:
            errors.append(
                f"{where}: store value/pointee type mismatch in "
                f"{_describe(block, inst)} (storing {inst.value.type} "
                f"through {inst.pointer.type})"
            )
    elif isinstance(inst, GetElementPtr):
        if not inst.base.type.is_pointer:
            errors.append(
                f"{where}: getelementptr base is not a pointer in "
                f"{_describe(block, inst)}"
            )
    elif isinstance(inst, Call):
        callee = inst.callee
        if isinstance(callee, Function):
            expected = callee.ftype.param_types
            if not callee.ftype.is_vararg and len(expected) != len(inst.operands):
                errors.append(
                    f"{where}: call to @{callee.name} passes {len(inst.operands)} "
                    f"args, expected {len(expected)}"
                )
            else:
                for i, (arg, param_type) in enumerate(zip(inst.operands, expected)):
                    if arg.type != param_type:
                        errors.append(
                            f"{where}: call to @{callee.name} arg {i} type "
                            f"{arg.type} != param type {param_type}"
                        )
            if callee.return_type != inst.type:
                errors.append(
                    f"{where}: call to @{callee.name} return type mismatch"
                )
    return errors


def verify_module(module: Module) -> None:
    """Verify every function; raise :class:`VerificationError` on problems."""
    errors: List[str] = []
    for function in module:
        errors.extend(verify_function(function))
    if errors:
        raise VerificationError(errors)
