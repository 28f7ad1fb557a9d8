"""IR values: the base class, constants, arguments and undef.

Every operand of every instruction is a :class:`Value`.  Instructions are
themselves values (their result), which is what makes def-use chains work.
"""

from __future__ import annotations

from typing import List

from repro.compiler.ir.types import FloatType, IntType, Type


class Value:
    """Anything that can be used as an operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        #: Instructions that use this value as an operand.
        self.uses: List["Value"] = []

    def add_use(self, user: "Value") -> None:
        self.uses.append(user)

    def remove_use(self, user: "Value") -> None:
        if user in self.uses:
            self.uses.remove(user)

    def short_name(self) -> str:
        """How this value is referred to as an operand in printed IR."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.type} {self.short_name()})"


class Constant(Value):
    """A literal integer or floating-point constant."""

    def __init__(self, type_: Type, value):
        super().__init__(type_)
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        elif isinstance(type_, FloatType):
            value = float(value)
        self.value = value

    def short_name(self) -> str:
        if isinstance(self.type, FloatType):
            return repr(float(self.value))
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.type} {self.short_name()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))  # repro-lint: allow[no-hash] -- in-process dict/set key for value-equal constants; never emitted or ordered on


class UndefValue(Value):
    """An undefined value of a given type."""

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.index = index

    def __repr__(self) -> str:
        return f"Argument({self.type} %{self.name} #{self.index})"
