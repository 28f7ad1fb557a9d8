"""IR type system.

A deliberately small, LLVM-flavoured type lattice: void, integers of a given
bit width, IEEE floats, opaque-pointee pointers, fixed-width vectors and
function types.  Sizes in bytes are what the Roofline instrumentation pass
uses to turn loads/stores into byte counts, so they are first-class here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Type:
    """Base class for all IR types.  Types are immutable and compared by value."""

    def size_bytes(self) -> int:
        """Size of a value of this type in memory."""
        raise NotImplementedError

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))  # repro-lint: allow[no-hash] -- in-process dict/set key for value-equal types; never emitted or ordered on

    def _key(self) -> Tuple:
        return ()

    def __repr__(self) -> str:
        return str(self)


class VoidType(Type):
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """An integer of *bits* width (i1, i8, i16, i32, i64)."""

    def __init__(self, bits: int):
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    def _key(self) -> Tuple:
        return (self.bits,)

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def min_value(self) -> int:
        if self.bits == 1:
            return 0
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        if self.bits == 1:
            return 1
        return (1 << (self.bits - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap *value* to this type's two's-complement range."""
        mask = (1 << self.bits) - 1
        value &= mask
        if self.bits > 1 and value > self.max_value:
            value -= 1 << self.bits
        return value


class FloatType(Type):
    """An IEEE floating-point type (f32 or f64)."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    def size_bytes(self) -> int:
        return self.bits // 8

    def _key(self) -> Tuple:
        return (self.bits,)

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


class PointerType(Type):
    """A pointer to values of *pointee* type (64-bit address space)."""

    def __init__(self, pointee: Type):
        if isinstance(pointee, VoidType):
            pointee = IntType(8)
        self.pointee = pointee

    def size_bytes(self) -> int:
        return 8

    def _key(self) -> Tuple:
        return (self.pointee,)

    def __str__(self) -> str:
        return f"{self.pointee}*"


class VectorType(Type):
    """A fixed-width vector of *count* elements of *element* type."""

    def __init__(self, element: Type, count: int):
        if not (element.is_integer or element.is_float):
            raise ValueError("vector elements must be scalar integer or float types")
        if count < 1:
            raise ValueError("vector count must be >= 1")
        self.element = element
        self.count = count

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.count

    def _key(self) -> Tuple:
        return (self.element, self.count)

    def __str__(self) -> str:
        return f"<{self.count} x {self.element}>"


class FunctionType(Type):
    """A function signature."""

    def __init__(self, return_type: Type, param_types: Sequence[Type],
                 is_vararg: bool = False):
        self.return_type = return_type
        self.param_types: List[Type] = list(param_types)
        self.is_vararg = is_vararg

    def size_bytes(self) -> int:
        return 8  # a function value is a pointer

    def _key(self) -> Tuple:
        return (self.return_type, tuple(self.param_types), self.is_vararg)

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        if self.is_vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"


# Singleton-ish convenience instances.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
#: A generic byte pointer ("i8*"), handy for opaque runtime handles.
PTR = PointerType(I8)


_NAMED_TYPES = {
    "void": VOID,
    "i1": I1,
    "i8": I8,
    "i16": I16,
    "i32": I32,
    "i64": I64,
    "float": F32,
    "double": F64,
}


def named_type(name: str) -> Optional[Type]:
    """Look up a scalar type by its textual name (used by the parser)."""
    return _NAMED_TYPES.get(name)
