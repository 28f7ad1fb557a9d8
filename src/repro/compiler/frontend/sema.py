"""KernelC semantic analysis.

Checks performed before code generation:

* every identifier refers to a declared variable or parameter;
* no variable is redeclared in the same scope;
* assignment targets are lvalues (identifiers or subscripts);
* called functions exist (in the translation unit or the known runtime
  external set) and are called with the right number of arguments;
* ``return`` statements match the function's return type (value presence);
* subscripted expressions have pointer type;
* ``break``/``continue`` appear inside a loop.

Type *conversions* (int -> long, int -> float, ...) are handled during code
generation using the usual arithmetic conversions; sema only rejects things
that have no meaning at all (e.g. subscripting a float).
"""

from __future__ import annotations

from typing import Dict, Optional

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

#: External functions kernels may call without defining them; the execution
#: engine provides implementations (see repro.vm.engine and repro.runtime).
KNOWN_EXTERNALS: Dict[str, int] = {
    "sqrtf": 1,
    "fabsf": 1,
    "expf": 1,
    "logf": 1,
    "fminf": 2,
    "fmaxf": 2,
}


class SemanticError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at {line}:{column}" if line else ""
        super().__init__(message + location)
        self.line = line
        self.column = column


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, TypeName] = {}

    def declare(self, name: str, type_name: TypeName, line: int, column: int) -> None:
        if name in self.symbols:
            raise SemanticError(f"redeclaration of {name!r}", line, column)
        self.symbols[name] = type_name

    def lookup(self, name: str) -> Optional[TypeName]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    """Checks a translation unit; raises :class:`SemanticError` on problems."""

    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.functions: Dict[str, FunctionDef] = {}
        self._loop_depth = 0
        self._current_function: Optional[FunctionDef] = None

    def analyze(self) -> None:
        for function in self.unit.functions:
            if function.name in self.functions:
                raise SemanticError(
                    f"redefinition of function {function.name!r}",
                    function.line, function.column,
                )
            self.functions[function.name] = function
        for function in self.unit.functions:
            self._check_function(function)

    # -- functions -----------------------------------------------------------------------

    def _check_function(self, function: FunctionDef) -> None:
        self._current_function = function
        scope = _Scope()
        for param in function.parameters:
            if param.type_name.name == "void" and param.type_name.pointer_depth == 0:
                raise SemanticError(
                    f"parameter {param.name!r} cannot have type void",
                    param.line, param.column,
                )
            scope.declare(param.name, param.type_name, param.line, param.column)
        if function.body is not None:
            self._check_block(function.body, scope)
        self._current_function = None

    # -- statements -------------------------------------------------------------------------

    def _check_block(self, block: Block, scope: _Scope) -> None:
        inner = _Scope(scope)
        for statement in block.statements:
            self._check_statement(statement, inner)

    def _check_statement(self, statement: Statement, scope: _Scope) -> None:
        if isinstance(statement, Block):
            self._check_block(statement, scope)
        elif isinstance(statement, Declaration):
            if statement.initializer is not None:
                self._check_expression(statement.initializer, scope)
            if statement.type_name.name == "void" and statement.type_name.pointer_depth == 0:
                raise SemanticError(
                    f"variable {statement.name!r} cannot have type void",
                    statement.line, statement.column,
                )
            scope.declare(statement.name, statement.type_name,
                          statement.line, statement.column)
        elif isinstance(statement, Assignment):
            if not isinstance(statement.target, (Identifier, IndexExpr)):
                raise SemanticError("assignment target is not an lvalue",
                                    statement.line, statement.column)
            self._check_expression(statement.target, scope)
            self._check_expression(statement.value, scope)
        elif isinstance(statement, ExpressionStatement):
            self._check_expression(statement.expression, scope)
        elif isinstance(statement, IfStatement):
            self._check_expression(statement.condition, scope)
            self._check_statement(statement.then_body, scope)
            if statement.else_body is not None:
                self._check_statement(statement.else_body, scope)
        elif isinstance(statement, ForStatement):
            loop_scope = _Scope(scope)
            if statement.init is not None:
                self._check_statement(statement.init, loop_scope)
            if statement.condition is not None:
                self._check_expression(statement.condition, loop_scope)
            if statement.increment is not None:
                self._check_statement(statement.increment, loop_scope)
            self._loop_depth += 1
            self._check_statement(statement.body, loop_scope)
            self._loop_depth -= 1
        elif isinstance(statement, WhileStatement):
            self._check_expression(statement.condition, scope)
            self._loop_depth += 1
            self._check_statement(statement.body, scope)
            self._loop_depth -= 1
        elif isinstance(statement, ReturnStatement):
            function = self._current_function
            assert function is not None
            returns_void = (
                function.return_type.name == "void"
                and function.return_type.pointer_depth == 0
            )
            if returns_void and statement.value is not None:
                raise SemanticError(
                    f"void function {function.name!r} returns a value",
                    statement.line, statement.column,
                )
            if not returns_void and statement.value is None:
                raise SemanticError(
                    f"non-void function {function.name!r} returns without a value",
                    statement.line, statement.column,
                )
            if statement.value is not None:
                self._check_expression(statement.value, scope)
        elif isinstance(statement, (BreakStatement, ContinueStatement)):
            if self._loop_depth == 0:
                keyword = "break" if isinstance(statement, BreakStatement) else "continue"
                raise SemanticError(f"{keyword!r} outside of a loop",
                                    statement.line, statement.column)
        else:
            raise SemanticError(
                f"unhandled statement kind {type(statement).__name__}",
                statement.line, statement.column,
            )

    # -- expressions -------------------------------------------------------------------------

    def _check_expression(self, expression: Expression, scope: _Scope) -> None:
        if isinstance(expression, (IntLiteral, FloatLiteral)):
            return
        if isinstance(expression, Identifier):
            if scope.lookup(expression.name) is None:
                raise SemanticError(f"use of undeclared identifier {expression.name!r}",
                                    expression.line, expression.column)
            return
        if isinstance(expression, BinaryExpr):
            self._check_expression(expression.lhs, scope)
            self._check_expression(expression.rhs, scope)
            return
        if isinstance(expression, UnaryExpr):
            self._check_expression(expression.operand, scope)
            return
        if isinstance(expression, IndexExpr):
            self._check_expression(expression.base, scope)
            self._check_expression(expression.index, scope)
            base = expression.base
            if isinstance(base, Identifier):
                base_type = scope.lookup(base.name)
                if base_type is not None and base_type.pointer_depth == 0:
                    raise SemanticError(
                        f"subscripted value {base.name!r} is not a pointer",
                        expression.line, expression.column,
                    )
            return
        if isinstance(expression, CallExpr):
            for arg in expression.args:
                self._check_expression(arg, scope)
            if expression.callee in self.functions:
                expected = len(self.functions[expression.callee].parameters)
            elif expression.callee in KNOWN_EXTERNALS:
                expected = KNOWN_EXTERNALS[expression.callee]
            else:
                raise SemanticError(f"call to undefined function {expression.callee!r}",
                                    expression.line, expression.column)
            if expected != len(expression.args):
                raise SemanticError(
                    f"function {expression.callee!r} expects {expected} arguments, "
                    f"got {len(expression.args)}",
                    expression.line, expression.column,
                )
            return
        if isinstance(expression, CastExpr):
            self._check_expression(expression.operand, scope)
            return
        raise SemanticError(
            f"unhandled expression kind {type(expression).__name__}",
            expression.line, expression.column,
        )
