"""KernelC lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List


class LexerError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    INT_LITERAL = "int_literal"
    FLOAT_LITERAL = "float_literal"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {"void", "int", "long", "float", "double", "if", "else", "for", "while",
     "return", "break", "continue"}
)

#: Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=", ">>=",
    "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",",
]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.column})"


class Lexer:
    """Turns KernelC source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            token = self.next_token()
            out.append(token)
            if token.kind is TokenKind.EOF:
                return out

    # -- scanning ---------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                self._advance(2)
            else:
                return

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", line, column)

        char = self._peek()

        if char.isalpha() or char == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self.source[start:self.pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            return Token(kind, text, line, column)

        if char.isdigit() or (char == "." and self._peek(1).isdigit()):
            return self._number(line, column)

        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, column)

        raise LexerError(f"unexpected character {char!r}", line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == ".":
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E"):
            is_float = True
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start:self.pos]
        if self._peek() in ("f", "F"):
            is_float = True
            self._advance()
        if self._peek() in ("l", "L", "u", "U"):
            self._advance()
        kind = TokenKind.FLOAT_LITERAL if is_float else TokenKind.INT_LITERAL
        return Token(kind, text, line, column)
