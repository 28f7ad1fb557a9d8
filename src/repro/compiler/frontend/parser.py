"""KernelC recursive-descent parser."""

from __future__ import annotations

from typing import List, Optional

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
    Parameter,
    ReturnStatement,
    Statement,
    TranslationUnit,
    TypeName,
    UnaryExpr,
    WhileStatement,
)
from repro.compiler.frontend.lexer import Lexer, Token, TokenKind

TYPE_KEYWORDS = frozenset({"void", "int", "long", "float", "double"})
ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} at {token.line}:{token.column} (got {token.text!r})")
        self.token = token


class Parser:
    """Parses a KernelC translation unit."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.filename = filename
        self.tokens = Lexer(source, filename).tokens()
        self.pos = 0

    # -- token helpers -----------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParseError(f"expected {text!r}", token)
        return self._advance()

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise ParseError("expected identifier", token)
        return self._advance()

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._advance()
            return True
        return False

    def _at_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token.kind is TokenKind.KEYWORD and token.text in TYPE_KEYWORDS

    # -- top level ----------------------------------------------------------------------

    def parse(self) -> TranslationUnit:
        unit = TranslationUnit(filename=self.filename)
        while self._peek().kind is not TokenKind.EOF:
            unit.functions.append(self._function())
        return unit

    def _type_name(self) -> TypeName:
        token = self._peek()
        if not self._at_type():
            raise ParseError("expected type name", token)
        self._advance()
        depth = 0
        while self._accept_punct("*"):
            depth += 1
        return TypeName(line=token.line, column=token.column,
                        name=token.text, pointer_depth=depth)

    def _function(self) -> FunctionDef:
        return_type = self._type_name()
        name_token = self._expect_identifier()
        self._expect_punct("(")
        parameters: List[Parameter] = []
        if not self._peek().is_punct(")"):
            while True:
                param_type = self._type_name()
                param_name = self._expect_identifier()
                parameters.append(Parameter(line=param_name.line, column=param_name.column,
                                            type_name=param_type, name=param_name.text))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._block()
        return FunctionDef(line=name_token.line, column=name_token.column,
                           return_type=return_type, name=name_token.text,
                           parameters=parameters, body=body)

    # -- statements ---------------------------------------------------------------------------

    def _block(self) -> Block:
        open_token = self._expect_punct("{")
        block = Block(line=open_token.line, column=open_token.column)
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", self._peek())
            block.statements.append(self._statement())
        self._expect_punct("}")
        return block

    def _statement(self) -> Statement:
        token = self._peek()
        if token.is_punct("{"):
            return self._block()
        if token.is_keyword("if"):
            return self._if_statement()
        if token.is_keyword("for"):
            return self._for_statement()
        if token.is_keyword("while"):
            return self._while_statement()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._peek().is_punct(";"):
                value = self._expression()
            self._expect_punct(";")
            return ReturnStatement(line=token.line, column=token.column, value=value)
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return BreakStatement(line=token.line, column=token.column)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ContinueStatement(line=token.line, column=token.column)
        if self._at_type():
            statement = self._declaration()
            self._expect_punct(";")
            return statement
        statement = self._simple_statement()
        self._expect_punct(";")
        return statement

    def _declaration(self) -> Declaration:
        type_name = self._type_name()
        name_token = self._expect_identifier()
        initializer = None
        if self._accept_punct("="):
            initializer = self._expression()
        return Declaration(line=name_token.line, column=name_token.column,
                           type_name=type_name, name=name_token.text,
                           initializer=initializer)

    def _simple_statement(self) -> Statement:
        """An assignment, increment/decrement or bare expression (no trailing ';')."""
        token = self._peek()
        expr = self._expression()
        next_token = self._peek()
        if next_token.kind is TokenKind.PUNCT and next_token.text in ASSIGN_OPS:
            op = self._advance().text
            value = self._expression()
            return Assignment(line=token.line, column=token.column,
                              target=expr, op=op, value=value)
        if next_token.is_punct("++") or next_token.is_punct("--"):
            self._advance()
            op = "+=" if next_token.text == "++" else "-="
            one = IntLiteral(line=next_token.line, column=next_token.column, value=1)
            return Assignment(line=token.line, column=token.column,
                              target=expr, op=op, value=one)
        return ExpressionStatement(line=token.line, column=token.column, expression=expr)

    def _if_statement(self) -> IfStatement:
        token = self._advance()  # 'if'
        self._expect_punct("(")
        condition = self._expression()
        self._expect_punct(")")
        then_body = self._statement()
        else_body = None
        if self._peek().is_keyword("else"):
            self._advance()
            else_body = self._statement()
        return IfStatement(line=token.line, column=token.column, condition=condition,
                           then_body=then_body, else_body=else_body)

    def _for_statement(self) -> ForStatement:
        token = self._advance()  # 'for'
        self._expect_punct("(")
        init: Optional[Statement] = None
        if not self._peek().is_punct(";"):
            init = self._declaration() if self._at_type() else self._simple_statement()
        self._expect_punct(";")
        condition: Optional[Expression] = None
        if not self._peek().is_punct(";"):
            condition = self._expression()
        self._expect_punct(";")
        increment: Optional[Statement] = None
        if not self._peek().is_punct(")"):
            increment = self._simple_statement()
        self._expect_punct(")")
        body = self._statement()
        return ForStatement(line=token.line, column=token.column, init=init,
                            condition=condition, increment=increment, body=body)

    def _while_statement(self) -> WhileStatement:
        token = self._advance()  # 'while'
        self._expect_punct("(")
        condition = self._expression()
        self._expect_punct(")")
        body = self._statement()
        return WhileStatement(line=token.line, column=token.column,
                              condition=condition, body=body)

    # -- expressions -----------------------------------------------------------------------------

    def _expression(self) -> Expression:
        return self._binary_expression(0)

    def _binary_expression(self, min_precedence: int) -> Expression:
        lhs = self._unary_expression()
        while True:
            token = self._peek()
            if token.kind is not TokenKind.PUNCT:
                return lhs
            precedence = _PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return lhs
            self._advance()
            rhs = self._binary_expression(precedence + 1)
            lhs = BinaryExpr(line=token.line, column=token.column,
                             op=token.text, lhs=lhs, rhs=rhs)

    def _unary_expression(self) -> Expression:
        token = self._peek()
        if token.is_punct("-") or token.is_punct("!") or token.is_punct("~"):
            self._advance()
            operand = self._unary_expression()
            return UnaryExpr(line=token.line, column=token.column,
                             op=token.text, operand=operand)
        if token.is_punct("(") and self._at_type(1):
            # A cast: '(' type ')' expr.
            self._advance()
            target_type = self._type_name()
            self._expect_punct(")")
            operand = self._unary_expression()
            return CastExpr(line=token.line, column=token.column,
                            target_type=target_type, operand=operand)
        return self._postfix_expression()

    def _postfix_expression(self) -> Expression:
        expr = self._primary_expression()
        while True:
            token = self._peek()
            if token.is_punct("["):
                self._advance()
                index = self._expression()
                self._expect_punct("]")
                expr = IndexExpr(line=token.line, column=token.column,
                                 base=expr, index=index)
            else:
                return expr

    def _primary_expression(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return IntLiteral(line=token.line, column=token.column, value=int(token.text, 0))
        if token.kind is TokenKind.FLOAT_LITERAL:
            self._advance()
            text = token.text
            return FloatLiteral(line=token.line, column=token.column,
                                value=float(text), is_double="f" not in text.lower())
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._peek().is_punct("("):
                self._advance()
                args: List[Expression] = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                return CallExpr(line=token.line, column=token.column,
                                callee=token.text, args=args)
            return Identifier(line=token.line, column=token.column, name=token.text)
        if token.is_punct("("):
            self._advance()
            expr = self._expression()
            self._expect_punct(")")
            return expr
        raise ParseError("expected expression", token)
