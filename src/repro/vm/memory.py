"""Flat byte-addressable memory for the execution engine.

Pointers in the IR are plain integer addresses into this memory, which is
what lets ``getelementptr`` arithmetic, the cache model (which needs real
addresses to decide hits and misses) and the instrumentation byte counts all
agree with each other.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.compiler.ir.types import FloatType, IntType, PointerType, Type


class MemoryError_(Exception):
    """Raised on out-of-bounds or unmapped accesses."""


_INT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
_FLOAT_FORMATS = {32: "f", 64: "d"}


def _codec(type_: Type) -> Optional[struct.Struct]:
    """The little-endian ``struct`` of a scalar type (None for i1)."""
    if isinstance(type_, IntType):
        fmt = _INT_FORMATS.get(type_.bits)
    elif isinstance(type_, FloatType):
        fmt = _FLOAT_FORMATS.get(type_.bits)
    else:
        fmt = "q" if isinstance(type_, PointerType) else None
    return struct.Struct("<" + fmt) if fmt else None


class Memory:
    """A bump-allocated heap plus a per-call stack region.

    The heap starts at ``heap_base`` (``HEAP_BASE`` by default; threads that
    need disjoint address ranges pass their own) and grows upward by at most
    ``HEAP_SIZE`` bytes, all below the stack; stack frames are carved from a
    separate region so that freeing a frame on return is a single pointer
    reset.  All addresses are stable for the lifetime of the Memory object,
    which the cache simulator relies on.  Both segments are zero-filled on
    demand, never all ``STACK_SIZE`` bytes up front.
    """

    HEAP_BASE = 0x0001_0000
    STACK_BASE = 0x4000_0000
    STACK_SIZE = 8 * 1024 * 1024
    HEAP_SIZE = 256 * 1024 * 1024

    def __init__(self, heap_base: int = HEAP_BASE):
        if not 0 < heap_base <= self.STACK_BASE - self.HEAP_SIZE:
            raise MemoryError_(
                f"heap base {heap_base:#x} leaves no room below the stack")
        self.heap_base = heap_base
        self._heap = bytearray()
        self._heap_top = heap_base
        self._stack = bytearray()
        self._stack_top = self.STACK_BASE

    # -- allocation --------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate *size* bytes on the heap; returns the address."""
        if size <= 0:
            raise MemoryError_("allocation size must be positive")
        top = (self._heap_top + 15) & -16       # 16-byte aligned
        address = top
        new_top = top + size
        needed = new_top - self.heap_base
        if needed > self.HEAP_SIZE:
            raise MemoryError_(
                f"heap exhausted: requested {size} bytes at {address:#x}"
            )
        if needed > len(self._heap):
            self._heap.extend(b"\x00" * (needed - len(self._heap)))
        self._heap_top = new_top
        return address

    def push_stack_frame(self) -> int:
        """Begin a stack frame; returns a token for :meth:`pop_stack_frame`."""
        return self._stack_top

    def stack_alloc(self, size: int) -> int:
        if size <= 0:
            raise MemoryError_("allocation size must be positive")
        top = (self._stack_top + 15) & -16      # 16-byte aligned
        address = top
        self._stack_top = top + size
        used = self._stack_top - self.STACK_BASE
        if used > self.STACK_SIZE:
            raise MemoryError_("stack overflow in modelled program")
        if used > len(self._stack):
            self._grow_stack(used)
        return address

    def pop_stack_frame(self, token: int) -> None:
        self._stack_top = token

    def _grow_stack(self, end: int) -> None:
        """Zero-fill the stack segment to *end* bytes or more (doubling)."""
        stack = self._stack
        target = min(self.STACK_SIZE, max(end, 2 * len(stack), 4096))
        stack.extend(bytes(target - len(stack)))

    # -- raw byte access ------------------------------------------------------------------

    def _backing(self, address: int, size: int) -> Tuple[bytearray, int]:
        if self.heap_base <= address and address + size <= self.heap_base + len(self._heap):
            return self._heap, address - self.heap_base
        if self.STACK_BASE <= address and address + size <= self.STACK_BASE + self.STACK_SIZE:
            offset = address - self.STACK_BASE
            if offset + size > len(self._stack):
                self._grow_stack(offset + size)
            return self._stack, offset
        raise MemoryError_(f"unmapped access of {size} bytes at {address:#x}")

    def read_bytes(self, address: int, size: int) -> bytes:
        backing, offset = self._backing(address, size)
        return bytes(backing[offset:offset + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        backing, offset = self._backing(address, len(data))
        backing[offset:offset + len(data)] = data

    # -- typed access ----------------------------------------------------------------------

    def load_typed(self, address: int, type_: Type):
        """Load a value of *type_* from *address*."""
        if isinstance(type_, IntType) and type_.bits == 1:
            return self.read_bytes(address, 1)[0] & 1
        codec = _codec(type_)
        if codec is None:
            raise MemoryError_(f"cannot load value of type {type_}")
        return codec.unpack(self.read_bytes(address, codec.size))[0]

    def store_typed(self, address: int, type_: Type, value) -> None:
        """Store *value* of *type_* at *address* (integers wrapped first)."""
        if isinstance(type_, IntType) and type_.bits == 1:
            self.write_bytes(address, bytes([int(value) & 1]))
            return
        codec = _codec(type_)
        if codec is None:
            raise MemoryError_(f"cannot store value of type {type_}")
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        else:
            value = float(value) if isinstance(type_, FloatType) else int(value)
        self.write_bytes(address, codec.pack(value))

    # -- predecoded access (execution-engine fast path) ---------------------------------------

    def load_fn(self, type_: Type):
        """Return a specialised ``loader(address) -> value`` for *type_*.

        Predecode hook used by the execution engine's fast dispatch: the type
        dispatch and struct-format selection happen once per instruction
        instead of once per access.  Bounds checking and results are
        identical to :meth:`load_typed`.  In-bounds accesses resolve their
        segment inline: both backing bytearrays are stable objects for the
        lifetime of the Memory (both segments grow in place), so the
        closures capture them once -- workload arrays live on the heap,
        escaping locals and stack arrays on the stack -- and only
        addresses past a segment's current end fall back to
        :meth:`_backing`, which grows the stack or raises.
        """
        backing_of = self._backing
        heap, heap_base = self._heap, self.heap_base
        stack, stack_base = self._stack, self.STACK_BASE
        if isinstance(type_, IntType) and type_.bits == 1:
            def load_i1(address: int) -> int:
                backing, offset = backing_of(address, 1)
                return backing[offset] & 1
            return load_i1
        codec = _codec(type_)
        if codec is None:
            raise MemoryError_(f"cannot load value of type {type_}")
        size, unpack_from = codec.size, codec.unpack_from

        def load(address: int):
            offset = address - stack_base
            if 0 <= offset:
                if offset + size <= len(stack):
                    return unpack_from(stack, offset)[0]
            else:
                offset = address - heap_base
                if 0 <= offset and offset + size <= len(heap):
                    return unpack_from(heap, offset)[0]
            backing, offset = backing_of(address, size)
            return unpack_from(backing, offset)[0]
        return load

    def store_fn(self, type_: Type):
        """Return a specialised ``storer(address, value)`` for *type_*.

        The counterpart of :meth:`load_fn`; semantics match
        :meth:`store_typed` (integers are wrapped to the type's range before
        being packed), including the heap fast path.
        """
        backing_of = self._backing
        heap, heap_base = self._heap, self.heap_base
        stack, stack_base = self._stack, self.STACK_BASE
        if isinstance(type_, IntType) and type_.bits == 1:
            def store_i1(address: int, value) -> None:
                backing, offset = backing_of(address, 1)
                backing[offset] = int(value) & 1
            return store_i1
        codec = _codec(type_)
        if codec is None:
            raise MemoryError_(f"cannot store value of type {type_}")
        size, pack_into = codec.size, codec.pack_into
        if isinstance(type_, IntType):
            wrap = type_.wrap

            def coerce(value) -> int:
                return wrap(int(value))
        else:
            coerce = float if isinstance(type_, FloatType) else int

        def store(address: int, value) -> None:
            offset = address - stack_base
            if 0 <= offset:
                if offset + size <= len(stack):
                    pack_into(stack, offset, coerce(value))
                    return
            else:
                offset = address - heap_base
                if 0 <= offset and offset + size <= len(heap):
                    pack_into(heap, offset, coerce(value))
                    return
            backing, offset = backing_of(address, size)
            pack_into(backing, offset, coerce(value))
        return store

    def stack_slot(self, type_: Type):
        """``(unpack_from, pack_into, stack)`` for *type_* (None for i1).

        The engine's generated code accesses ``alloca``'d slots -- always
        inside the stack segment -- at ``address - STACK_BASE`` through
        these, and reads and writes back the slots it keeps in locals.
        """
        codec = _codec(type_)
        return codec and (codec.unpack_from, codec.pack_into, self._stack)

    # -- convenience for tests and workloads --------------------------------------------------

    def alloc_float_array(self, values: List[float], double: bool = False) -> int:
        """Allocate and initialise a float (or double) array; returns its address."""
        elem = 8 if double else 4
        address = self.malloc(len(values) * elem)
        fmt = "<" + ("d" if double else "f") * len(values)
        self.write_bytes(address, struct.pack(fmt, *values))
        return address

    def read_float_array(self, address: int, count: int, double: bool = False) -> List[float]:
        elem = 8 if double else 4
        fmt = "<" + ("d" if double else "f") * count
        return list(struct.unpack(fmt, self.read_bytes(address, count * elem)))

    def read_int_array(self, address: int, count: int, bits: int = 64) -> List[int]:
        elem = bits // 8
        fmt = "<" + _INT_FORMATS[bits] * count
        return list(struct.unpack(fmt, self.read_bytes(address, count * elem)))
