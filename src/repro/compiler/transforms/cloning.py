"""Function and instruction cloning.

The Roofline instrumentation pass needs to duplicate an outlined loop
function: one copy stays untouched (the baseline path), the other receives
counting calls.  ``clone_function`` performs a deep copy with full operand
remapping, optionally appending extra parameters to the clone's signature
(the instrumented variant takes the loop handle as a trailing argument).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.compiler.ir.types import FunctionType, Type
from repro.compiler.ir.values import Constant, UndefValue, Value


def _map_value(value: Value, value_map: Dict[Value, Value]) -> Value:
    """Look up an operand in the remapping table (constants map to themselves)."""
    if isinstance(value, (Constant, UndefValue)):
        return value
    if isinstance(value, Function):
        return value
    return value_map.get(value, value)


def clone_instruction(inst: Instruction, value_map: Dict[Value, Value],
                      block_map: Dict[BasicBlock, BasicBlock]) -> Instruction:
    """Clone one instruction, remapping operands and successor blocks.

    Phi nodes are cloned *without* their incoming lists; the caller fills
    them in after all blocks exist (see :func:`clone_function`).
    """
    def m(value: Value) -> Value:
        return _map_value(value, value_map)

    if isinstance(inst, BinaryOp):
        clone: Instruction = BinaryOp(inst.opcode, m(inst.lhs), m(inst.rhs), inst.name)
    elif isinstance(inst, CompareOp):
        clone = CompareOp(inst.opcode, inst.predicate, m(inst.lhs), m(inst.rhs), inst.name)
    elif isinstance(inst, Load):
        clone = Load(m(inst.pointer), inst.name)
    elif isinstance(inst, Store):
        clone = Store(m(inst.value), m(inst.pointer))
    elif isinstance(inst, Alloca):
        clone = Alloca(inst.allocated_type, inst.count, inst.name)
    elif isinstance(inst, GetElementPtr):
        clone = GetElementPtr(m(inst.base), m(inst.index), inst.name)
    elif isinstance(inst, Branch):
        clone = Branch(m(inst.condition), block_map[inst.then_block],
                       block_map[inst.else_block])
    elif isinstance(inst, Jump):
        clone = Jump(block_map[inst.target])
    elif isinstance(inst, Ret):
        clone = Ret(m(inst.value) if inst.value is not None else None)
    elif isinstance(inst, Call):
        clone = Call(inst.callee, [m(a) for a in inst.operands], inst.type, inst.name)
    elif isinstance(inst, Phi):
        clone = Phi(inst.type, inst.name)
    elif isinstance(inst, Cast):
        clone = Cast(inst.opcode, m(inst.value), inst.type, inst.name)
    elif isinstance(inst, Select):
        clone = Select(m(inst.condition), m(inst.true_value), m(inst.false_value),
                       inst.name)
    else:
        raise TypeError(f"cannot clone instruction of type {type(inst).__name__}")

    clone.location = inst.location
    clone.metadata = dict(inst.metadata)
    return clone


def clone_function(module: Module, source: Function, new_name: str,
                   extra_params: Optional[Sequence[Tuple[Type, str]]] = None) -> Function:
    """Deep-copy *source* into a new function named *new_name*.

    Parameters
    ----------
    module:
        The module the clone is added to.
    source:
        The function to copy (must be a definition).
    new_name:
        Name of the clone.
    extra_params:
        Additional ``(type, name)`` parameters appended to the clone's
        signature.  The clone's body does not reference them; callers (the
        instrumentation pass) insert uses afterwards.
    """
    if source.is_declaration:
        raise ValueError(f"cannot clone declaration @{source.name}")
    extra = list(extra_params or [])
    new_type = FunctionType(
        source.return_type,
        list(source.ftype.param_types) + [t for t, _ in extra],
    )
    arg_names = [a.name for a in source.args] + [n for _, n in extra]
    clone = module.create_function(new_name, new_type, arg_names)
    clone.metadata = dict(source.metadata)
    clone.source_file = source.source_file

    value_map: Dict[Value, Value] = {}
    for old_arg, new_arg in zip(source.args, clone.args):
        value_map[old_arg] = new_arg

    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in source.blocks:
        block_map[block] = clone.add_block(block.name)

    phi_pairs: List[Tuple[Phi, Phi]] = []
    for block in source.blocks:
        new_block = block_map[block]
        for inst in block.instructions:
            new_inst = clone_instruction(inst, value_map, block_map)
            if isinstance(inst, Phi):
                phi_pairs.append((inst, new_inst))  # fill incoming later
                new_block.insert(len(new_block.phis()), new_inst)
                new_inst.parent = new_block
            else:
                new_block.append(new_inst)
            value_map[inst] = new_inst

    # Now that every value has a clone, wire up phi incoming lists.
    for old_phi, new_phi in phi_pairs:
        for value, block in old_phi.incoming:
            new_phi.add_incoming(_map_value(value, value_map), block_map[block])

    # Internal name counters must not collide with existing names.
    clone._next_value_id = source._next_value_id
    clone._next_block_id = source._next_block_id
    return clone
