"""KernelC -> IR code generation.

Locals live in allocas (no mem2reg), which keeps loop bodies free of
cross-block SSA values and makes the CodeExtractor's outlining job simple --
the same simplification Clang makes at -O0 before the optimiser runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compiler.frontend.ast_nodes import (
    Assignment,
    BinaryExpr,
    Block,
    BreakStatement,
    CallExpr,
    CastExpr,
    ContinueStatement,
    Declaration,
    Expression,
    ExpressionStatement,
    FloatLiteral,
    ForStatement,
    FunctionDef,
    Identifier,
    IfStatement,
    IndexExpr,
    IntLiteral,
    ReturnStatement,
    Statement,
    TranslationUnit,
    TypeName,
    UnaryExpr,
    WhileStatement,
)
from repro.compiler.frontend.sema import KNOWN_EXTERNALS, SemanticError
from repro.compiler.analysis.cfg import reachable_blocks
from repro.compiler.ir.builder import IRBuilder
from repro.compiler.ir.instructions import Alloca
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import (
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VOID,
)
from repro.compiler.ir.values import Constant, Value

_SCALAR_TYPES: Dict[str, Type] = {
    "void": VOID,
    "int": I32,
    "long": I64,
    "float": F32,
    "double": F64,
}

_CMP_PREDICATES = {
    "<": ("slt", "olt"),
    "<=": ("sle", "ole"),
    ">": ("sgt", "ogt"),
    ">=": ("sge", "oge"),
    "==": ("eq", "oeq"),
    "!=": ("ne", "one"),
}

_ARITH_OPCODES = {
    "+": ("add", "fadd"),
    "-": ("sub", "fsub"),
    "*": ("mul", "fmul"),
    "/": ("sdiv", "fdiv"),
    "%": ("srem", "frem"),
}

_BITWISE_OPCODES = {"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}


def lower_type(type_name: TypeName) -> Type:
    base = _SCALAR_TYPES.get(type_name.name)
    if base is None:
        raise SemanticError(f"unknown type {type_name.name!r}",
                            type_name.line, type_name.column)
    result: Type = base
    for _ in range(type_name.pointer_depth):
        result = PointerType(result)
    return result


class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    def __init__(self, continue_block: BasicBlock, break_block: BasicBlock):
        self.continue_block = continue_block
        self.break_block = break_block


class CodeGenerator:
    """Generates a :class:`Module` from a checked translation unit."""

    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.module = Module(unit.filename)
        self.builder = IRBuilder()
        self._locals: Dict[str, Alloca] = {}
        self._loop_stack: List[_LoopContext] = []
        self._current_function: Optional[Function] = None

    # -- entry point ------------------------------------------------------------------

    def generate(self) -> Module:
        # Declare every function first so calls resolve regardless of order.
        for function_def in self.unit.functions:
            ftype = FunctionType(
                lower_type(function_def.return_type),
                [lower_type(p.type_name) for p in function_def.parameters],
            )
            self.module.create_function(
                function_def.name, ftype, [p.name for p in function_def.parameters]
            )
        for name, argc in KNOWN_EXTERNALS.items():
            if not self.module.has_function(name):
                self.module.declare_function(
                    name, FunctionType(F32, [F32] * argc)
                )
        for function_def in self.unit.functions:
            self._generate_function(function_def)
        return self.module

    # -- functions ----------------------------------------------------------------------

    def _generate_function(self, function_def: FunctionDef) -> None:
        function = self.module.get_function(function_def.name)
        function.source_file = self.unit.filename
        self._current_function = function
        self._locals = {}
        entry = function.add_block("entry")
        self.builder.set_insertion_point(entry)
        self.builder.set_location(self.unit.filename, function_def.line,
                                  function_def.column)

        # Spill parameters to allocas so everything is uniform.
        for arg in function.args:
            slot = self.builder.alloca(arg.type, name=f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self._locals[arg.name] = slot

        assert function_def.body is not None
        self._gen_block(function_def.body)

        # Terminate the fall-through path.
        if not self.builder.block.is_terminated:
            if function.return_type.is_void:
                self.builder.ret()
            else:
                self.builder.ret(self._zero(function.return_type))

        self._remove_unreachable_blocks(function)
        self._current_function = None

    def _remove_unreachable_blocks(self, function: Function) -> None:
        reachable = reachable_blocks(function)
        for block in list(function.blocks):
            if block not in reachable:
                function.remove_block(block)

    # -- statements ------------------------------------------------------------------------

    def _set_location(self, node) -> None:
        self.builder.set_location(self.unit.filename, node.line, node.column)

    def _gen_block(self, block: Block) -> None:
        # KernelC scoping was already validated by sema; shadowing across
        # nested blocks is rejected there, so a flat name->alloca map is safe.
        for statement in block.statements:
            self._gen_statement(statement)

    def _gen_statement(self, statement: Statement) -> None:
        self._set_location(statement)
        if isinstance(statement, Block):
            self._gen_block(statement)
        elif isinstance(statement, Declaration):
            self._gen_declaration(statement)
        elif isinstance(statement, Assignment):
            self._gen_assignment(statement)
        elif isinstance(statement, ExpressionStatement):
            if statement.expression is not None:
                self._gen_expression(statement.expression)
        elif isinstance(statement, IfStatement):
            self._gen_if(statement)
        elif isinstance(statement, ForStatement):
            self._gen_for(statement)
        elif isinstance(statement, WhileStatement):
            self._gen_while(statement)
        elif isinstance(statement, ReturnStatement):
            self._gen_return(statement)
        elif isinstance(statement, BreakStatement):
            self._gen_break()
        elif isinstance(statement, ContinueStatement):
            self._gen_continue()
        else:
            raise SemanticError(f"cannot generate code for {type(statement).__name__}",
                                statement.line, statement.column)

    def _gen_declaration(self, decl: Declaration) -> None:
        var_type = lower_type(decl.type_name)
        slot = self.builder.alloca(var_type, name=f"{decl.name}.addr")
        self._locals[decl.name] = slot
        if decl.initializer is not None:
            value = self._gen_expression(decl.initializer)
            self.builder.store(self._convert(value, var_type), slot)
        else:
            self.builder.store(self._zero(var_type), slot)

    def _gen_assignment(self, assign: Assignment) -> None:
        pointer, target_type = self._gen_lvalue(assign.target)
        value = self._gen_expression(assign.value)
        if assign.op == "=":
            self.builder.store(self._convert(value, target_type), pointer)
            return
        current = self.builder.load(pointer)
        operator = assign.op[0]  # '+=' -> '+'
        combined = self._arith(operator, current, value, assign)
        self.builder.store(self._convert(combined, target_type), pointer)

    def _gen_if(self, statement: IfStatement) -> None:
        function = self._current_function
        assert function is not None
        condition = self._to_bool(self._gen_expression(statement.condition))
        then_block = function.add_block(function.next_block_name("if.then"))
        merge_block = function.add_block(function.next_block_name("if.end"))
        else_block = merge_block
        if statement.else_body is not None:
            else_block = function.add_block(function.next_block_name("if.else"))
        self.builder.br(condition, then_block, else_block)

        self.builder.set_insertion_point(then_block)
        self._gen_statement(statement.then_body)
        if not self.builder.block.is_terminated:
            self.builder.jmp(merge_block)

        if statement.else_body is not None:
            self.builder.set_insertion_point(else_block)
            self._gen_statement(statement.else_body)
            if not self.builder.block.is_terminated:
                self.builder.jmp(merge_block)

        self.builder.set_insertion_point(merge_block)

    def _gen_for(self, statement: ForStatement) -> None:
        function = self._current_function
        assert function is not None
        if statement.init is not None:
            self._gen_statement(statement.init)

        cond_block = function.add_block(function.next_block_name("for.cond"))
        body_block = function.add_block(function.next_block_name("for.body"))
        inc_block = function.add_block(function.next_block_name("for.inc"))
        exit_block = function.add_block(function.next_block_name("for.end"))

        self.builder.jmp(cond_block)
        self.builder.set_insertion_point(cond_block)
        self._set_location(statement)
        if statement.condition is not None:
            condition = self._to_bool(self._gen_expression(statement.condition))
            self.builder.br(condition, body_block, exit_block)
        else:
            self.builder.jmp(body_block)

        self._loop_stack.append(_LoopContext(inc_block, exit_block))
        self.builder.set_insertion_point(body_block)
        self._gen_statement(statement.body)
        if not self.builder.block.is_terminated:
            self.builder.jmp(inc_block)
        self._loop_stack.pop()

        self.builder.set_insertion_point(inc_block)
        self._set_location(statement)
        if statement.increment is not None:
            self._gen_statement(statement.increment)
        self.builder.jmp(cond_block)

        self.builder.set_insertion_point(exit_block)

    def _gen_while(self, statement: WhileStatement) -> None:
        function = self._current_function
        assert function is not None
        cond_block = function.add_block(function.next_block_name("while.cond"))
        body_block = function.add_block(function.next_block_name("while.body"))
        exit_block = function.add_block(function.next_block_name("while.end"))

        self.builder.jmp(cond_block)
        self.builder.set_insertion_point(cond_block)
        self._set_location(statement)
        condition = self._to_bool(self._gen_expression(statement.condition))
        self.builder.br(condition, body_block, exit_block)

        self._loop_stack.append(_LoopContext(cond_block, exit_block))
        self.builder.set_insertion_point(body_block)
        self._gen_statement(statement.body)
        if not self.builder.block.is_terminated:
            self.builder.jmp(cond_block)
        self._loop_stack.pop()

        self.builder.set_insertion_point(exit_block)

    def _gen_return(self, statement: ReturnStatement) -> None:
        function = self._current_function
        assert function is not None
        if statement.value is None:
            self.builder.ret()
        else:
            value = self._gen_expression(statement.value)
            self.builder.ret(self._convert(value, function.return_type))
        # Statements after a return are dead; give them somewhere to go so the
        # builder stays usable, then drop the block during cleanup.
        dead = function.add_block(function.next_block_name("dead"))
        self.builder.set_insertion_point(dead)

    def _gen_break(self) -> None:
        if not self._loop_stack:
            raise SemanticError("break outside of a loop")
        self.builder.jmp(self._loop_stack[-1].break_block)
        self._start_dead_block()

    def _gen_continue(self) -> None:
        if not self._loop_stack:
            raise SemanticError("continue outside of a loop")
        self.builder.jmp(self._loop_stack[-1].continue_block)
        self._start_dead_block()

    def _start_dead_block(self) -> None:
        function = self._current_function
        assert function is not None
        dead = function.add_block(function.next_block_name("dead"))
        self.builder.set_insertion_point(dead)

    # -- expressions --------------------------------------------------------------------------

    def _gen_expression(self, expression: Expression) -> Value:
        self._set_location(expression)
        if isinstance(expression, IntLiteral):
            return Constant(I32, expression.value)
        if isinstance(expression, FloatLiteral):
            return Constant(F64 if expression.is_double else F32, expression.value)
        if isinstance(expression, Identifier):
            slot = self._lookup(expression)
            # Results get fresh auto-generated names; reusing the variable
            # name here would collide across repeated loads of the same local.
            return self.builder.load(slot)
        if isinstance(expression, BinaryExpr):
            return self._gen_binary(expression)
        if isinstance(expression, UnaryExpr):
            return self._gen_unary(expression)
        if isinstance(expression, IndexExpr):
            pointer, _ = self._gen_lvalue(expression)
            return self.builder.load(pointer)
        if isinstance(expression, CallExpr):
            return self._gen_call(expression)
        if isinstance(expression, CastExpr):
            value = self._gen_expression(expression.operand)
            return self._convert(value, lower_type(expression.target_type))
        raise SemanticError(f"cannot generate code for {type(expression).__name__}",
                            expression.line, expression.column)

    def _gen_binary(self, expression: BinaryExpr) -> Value:
        op = expression.op
        if op in ("&&", "||"):
            lhs = self._to_bool(self._gen_expression(expression.lhs))
            rhs = self._to_bool(self._gen_expression(expression.rhs))
            return self.builder.binary("and" if op == "&&" else "or", lhs, rhs)
        lhs = self._gen_expression(expression.lhs)
        rhs = self._gen_expression(expression.rhs)
        if op in _CMP_PREDICATES:
            lhs, rhs = self._usual_conversions(lhs, rhs)
            int_pred, fp_pred = _CMP_PREDICATES[op]
            if lhs.type.is_float:
                return self.builder.fcmp(fp_pred, lhs, rhs)
            return self.builder.icmp(int_pred, lhs, rhs)
        if op in _ARITH_OPCODES:
            return self._arith(op, lhs, rhs, expression)
        if op in _BITWISE_OPCODES:
            lhs, rhs = self._usual_conversions(lhs, rhs)
            return self.builder.binary(_BITWISE_OPCODES[op], lhs, rhs)
        raise SemanticError(f"unsupported binary operator {op!r}",
                            expression.line, expression.column)

    def _arith(self, op: str, lhs: Value, rhs: Value, node) -> Value:
        # Pointer arithmetic: ptr +/- integer becomes getelementptr.
        if lhs.type.is_pointer and op in ("+", "-"):
            index = self._convert(rhs, I64)
            if op == "-":
                index = self.builder.sub(Constant(I64, 0), index)
            return self.builder.gep(lhs, index)
        lhs, rhs = self._usual_conversions(lhs, rhs)
        int_opcode, fp_opcode = _ARITH_OPCODES[op]
        opcode = fp_opcode if lhs.type.is_float else int_opcode
        return self.builder.binary(opcode, lhs, rhs)

    def _gen_unary(self, expression: UnaryExpr) -> Value:
        operand = self._gen_expression(expression.operand)
        if expression.op == "-":
            if operand.type.is_float:
                return self.builder.fsub(Constant(operand.type, 0.0), operand)
            return self.builder.sub(Constant(operand.type, 0), operand)
        if expression.op == "!":
            boolean = self._to_bool(operand)
            return self.builder.binary("xor", boolean, Constant(I1, 1))
        if expression.op == "~":
            return self.builder.binary("xor", operand, Constant(operand.type, -1))
        raise SemanticError(f"unsupported unary operator {expression.op!r}",
                            expression.line, expression.column)

    def _gen_call(self, expression: CallExpr) -> Value:
        callee = self.module.get_function(expression.callee)
        args: List[Value] = []
        for arg_expr, param_type in zip(expression.args, callee.ftype.param_types):
            args.append(self._convert(self._gen_expression(arg_expr), param_type))
        return self.builder.call(callee, args)

    # -- lvalues -----------------------------------------------------------------------------------

    def _lookup(self, identifier: Identifier) -> Alloca:
        slot = self._locals.get(identifier.name)
        if slot is None:
            raise SemanticError(f"use of undeclared identifier {identifier.name!r}",
                                identifier.line, identifier.column)
        return slot

    def _gen_lvalue(self, expression: Expression) -> Tuple[Value, Type]:
        """Return ``(pointer, pointee type)`` for an assignable expression."""
        if isinstance(expression, Identifier):
            slot = self._lookup(expression)
            return slot, slot.allocated_type
        if isinstance(expression, IndexExpr):
            base = self._gen_expression(expression.base)
            if not base.type.is_pointer:
                raise SemanticError("subscripted value is not a pointer",
                                    expression.line, expression.column)
            index = self._convert(self._gen_expression(expression.index), I64)
            pointer = self.builder.gep(base, index)
            return pointer, base.type.pointee
        raise SemanticError("expression is not an lvalue",
                            expression.line, expression.column)

    # -- conversions ---------------------------------------------------------------------------------

    @staticmethod
    def _zero(type_: Type) -> Constant:
        if type_.is_float:
            return Constant(type_, 0.0)
        if type_.is_pointer:
            return Constant(I64, 0)
        return Constant(type_, 0)

    def _to_bool(self, value: Value) -> Value:
        if value.type == I1:
            return value
        if value.type.is_float:
            return self.builder.fcmp("one", value, Constant(value.type, 0.0))
        if value.type.is_integer:
            return self.builder.icmp("ne", value, Constant(value.type, 0))
        raise SemanticError(f"cannot convert {value.type} to a boolean")

    def _convert(self, value: Value, to_type: Type) -> Value:
        from_type = value.type
        if from_type == to_type:
            return value
        if isinstance(from_type, IntType) and isinstance(to_type, IntType):
            if from_type.bits < to_type.bits:
                opcode = "zext" if from_type.bits == 1 else "sext"
                return self.builder.cast(opcode, value, to_type)
            return self.builder.trunc(value, to_type)
        if isinstance(from_type, IntType) and isinstance(to_type, FloatType):
            widened = value
            if from_type.bits == 1:
                widened = self.builder.cast("zext", value, I32)
            return self.builder.sitofp(widened, to_type)
        if isinstance(from_type, FloatType) and isinstance(to_type, IntType):
            return self.builder.fptosi(value, to_type)
        if isinstance(from_type, FloatType) and isinstance(to_type, FloatType):
            if from_type.bits < to_type.bits:
                return self.builder.fpext(value, to_type)
            return self.builder.fptrunc(value, to_type)
        if from_type.is_pointer and to_type.is_pointer:
            return self.builder.cast("bitcast", value, to_type)
        raise SemanticError(f"cannot convert {from_type} to {to_type}")

    def _usual_conversions(self, lhs: Value, rhs: Value) -> Tuple[Value, Value]:
        """C's usual arithmetic conversions, reduced to this type lattice."""
        lt, rt = lhs.type, rhs.type
        if lt == rt:
            return lhs, rhs
        if lt.is_float or rt.is_float:
            target = F64 if (lt == F64 or rt == F64) else F32
            return self._convert(lhs, target), self._convert(rhs, target)
        if isinstance(lt, IntType) and isinstance(rt, IntType):
            target = lt if lt.bits >= rt.bits else rt
            if target.bits < 32:
                target = I32
            return self._convert(lhs, target), self._convert(rhs, target)
        return lhs, rhs
