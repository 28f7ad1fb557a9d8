"""Segment-edge oracle for the generated code's inline loads and stores.

The fast dispatch path reads and writes the heap and stack bytearrays in
place: one compare per segment picks one (``>= STACK_BASE`` the stack,
``>= heap_base`` the heap), and any access the segment cannot serve falls
back to ``Memory.load_typed``/``store_typed``, the reference path's own
accessors.  Every scalar type (i1, i8-i64, f32, f64, pointer) is loaded and
stored through a pointer argument at the addresses where that choice can go
wrong: both ends of the heap, across its end, below it, in the gap up to the
stack, past the stack's current length (which grows it) and past the stack
segment's end -- for the default heap base and for a per-thread one, as a
multi-hart run's thread memories have.  Both paths must return the same
value, leave the same heap and stack bytes and raise the same exception
type with the same message; that includes f32 stores that overflow and
pointer stores outside i64, in a segment and outside one.
"""

import pytest

from repro.compiler.ir import (
    F32, F64, I1, I8, I16, I32, I64, VOID, Constant, FunctionType, IRBuilder,
    Module, PointerType,
)
from repro.vm import ExecutionEngine, Memory

TYPES = {"i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64,
         "f32": F32, "f64": F64, "ptr": PointerType(I64)}
INT_VALUES = (0, 1, -1, 2, 255, -129, 2**31 - 1, -2**31, 2**63 - 1,
              2**64 + 3, -(2**70) - 1)
FLOAT_VALUES = (0.0, -0.0, 1.5, -2.25, 0.1, 3.0e38, float("nan"),
                float("inf"), 7)
#: Values whose store raises on both paths wherever it lands.
RAISING = {"f32": (1e300, -1e300), "ptr": (2**63, -2**63 - 1, 2**64 + 3)}
HEAP_BYTES = 64
STACK_BYTES = 32
THREAD_HEAP_BASE = Memory.HEAP_BASE + 3 * 16 * 1024 * 1024


def _module() -> Module:
    """``load_<t>(p) -> t`` and ``store_<t>(p, v)`` for every type."""
    module = Module("segments")
    for name, type_ in TYPES.items():
        pointer = PointerType(type_)
        load = module.create_function(f"load_{name}",
                                      FunctionType(type_, [pointer]), ["p"])
        b = IRBuilder(load.add_block("entry"))
        b.ret(b.load(load.args[0]))
        store = module.create_function(f"store_{name}",
                                       FunctionType(VOID, [pointer, type_]),
                                       ["p", "v"])
        b = IRBuilder(store.add_block("entry"))
        b.store(store.args[1], store.args[0])
        b.ret()
    for name in RAISING:
        # slot_<t>(p, v): a <t> slot whose address escapes to *p, so its
        # accesses index the stack in place; a sentinel, then *v*.
        type_ = TYPES[name]
        slot = module.create_function(
            f"slot_{name}",
            FunctionType(type_, [PointerType(PointerType(type_)), type_]),
            ["p", "v"])
        b = IRBuilder(slot.add_block("entry"))
        address = b.alloca(type_)
        b.store(address, slot.args[0])
        b.store(Constant(type_, 0.75 if name == "f32" else 77), address)
        b.store(slot.args[1], address)
        b.ret(b.load(address))
    return module


MODULE = _module()


def _memory(heap_base: int) -> Memory:
    """A heap of ``HEAP_BYTES`` with a recognisable pattern, and a stack."""
    memory = Memory(heap_base=heap_base)
    memory.write_bytes(memory.malloc(HEAP_BYTES), bytes(range(7, 7 + HEAP_BYTES)))
    memory.write_bytes(memory.stack_alloc(STACK_BYTES),
                       bytes(range(100, 100 + STACK_BYTES)))
    return memory


def _addresses(memory: Memory, size: int) -> dict:
    heap_end = memory.heap_base + HEAP_BYTES
    stack_end = Memory.STACK_BASE + len(memory._stack)
    segment_end = Memory.STACK_BASE + Memory.STACK_SIZE
    return {
        "heap-first": memory.heap_base,
        "heap-last": heap_end - size,
        "heap-straddle": heap_end - size + 1,
        "heap-end": heap_end,
        "below-heap": memory.heap_base - size,
        "below-heap-by-one": memory.heap_base - 1,
        "zero": 0,
        "gap": (heap_end + Memory.STACK_BASE) // 2,
        "gap-top": Memory.STACK_BASE - size,
        "stack-first": Memory.STACK_BASE,
        "stack-last": stack_end - size,
        "stack-growth": stack_end - size + 1,
        "stack-growth-far": stack_end + 3 * 4096,
        "stack-segment-last": segment_end - size,
        "stack-segment-straddle": segment_end - size + 1,
        "past-stack": segment_end,
        "huge": 1 << 70,
        "negative": -8,
    }


def _outcome(fast: bool, heap_base: int, function: str, address_case: str,
             size: int, *args):
    memory = _memory(heap_base)
    address = _addresses(memory, size)[address_case]
    engine = ExecutionEngine(MODULE, memory=memory, fast_dispatch=fast)
    try:
        result = ("value", engine.run(function, [address, *args]))
    except Exception as exc:    # noqa: BLE001 -- the type is compared
        result = ("raised", type(exc), str(exc))
    return result, bytes(memory._heap), bytes(memory._stack)


def _same(a, b) -> bool:
    """Equal outcomes; NaN equals NaN (as bytes compare it)."""
    (ra, *bytes_a), (rb, *bytes_b) = a, b
    if ra[0] == "value" and rb[0] == "value" and ra[1] != ra[1]:
        return rb[1] != rb[1] and bytes_a == bytes_b
    return a == b


HEAP_BASES = pytest.mark.parametrize(
    "heap_base", [Memory.HEAP_BASE, THREAD_HEAP_BASE], ids=["default", "thread"])
ADDRESS_CASES = sorted(_addresses(Memory(), 1))


@HEAP_BASES
@pytest.mark.parametrize("name", sorted(TYPES))
def test_load_matches_reference(name, heap_base):
    size = max(1, TYPES[name].size_bytes())
    for address_case in ADDRESS_CASES:
        fast = _outcome(True, heap_base, f"load_{name}", address_case, size)
        reference = _outcome(False, heap_base, f"load_{name}", address_case, size)
        assert _same(fast, reference), (address_case, fast[0], reference[0])


@HEAP_BASES
@pytest.mark.parametrize("name", sorted(TYPES))
def test_store_matches_reference(name, heap_base):
    size = max(1, TYPES[name].size_bytes())
    values = FLOAT_VALUES if name in ("f32", "f64") else INT_VALUES
    for address_case in ADDRESS_CASES:
        for value in values + RAISING.get(name, ()):
            fast = _outcome(True, heap_base, f"store_{name}", address_case,
                            size, value)
            reference = _outcome(False, heap_base, f"store_{name}", address_case,
                                 size, value)
            assert fast == reference, (address_case, value, fast[0], reference[0])


@pytest.mark.parametrize("name", sorted(RAISING))
def test_raising_store_to_an_alloca_leaves_its_bytes(name):
    """An ``alloca``'d slot read with a second type is accessed in place, not
    kept in a local; a store that raises must not touch its bytes."""
    for value in RAISING[name] + (1.5 if name == "f32" else 12345,):
        fast = _outcome(True, Memory.HEAP_BASE, f"slot_{name}", "heap-first", 8,
                        value)
        reference = _outcome(False, Memory.HEAP_BASE, f"slot_{name}",
                             "heap-first", 8, value)
        assert fast == reference, (value, fast[0], reference[0])


def test_the_cases_reach_every_outcome():
    """The edges above hit in-place accesses, stack growth and both errors."""
    seen = {}
    for address_case in ADDRESS_CASES:
        outcome, _heap, stack = _outcome(False, Memory.HEAP_BASE, "load_i64",
                                         address_case, 8)
        seen[address_case] = outcome[0] == "value", len(stack)
    assert seen["heap-first"] == seen["stack-first"] == (True, 4096)
    assert seen["stack-growth"] == (True, 8192)
    assert seen["stack-growth-far"][1] > 8192
    for unmapped in ("heap-straddle", "below-heap", "gap", "past-stack",
                     "stack-segment-straddle", "huge", "negative"):
        assert seen[unmapped] == (False, 4096), unmapped
    stored = _outcome(False, Memory.HEAP_BASE, "store_f32", "heap-first", 4, 1e300)
    assert stored[0][:2] == ("raised", OverflowError)
    stored = _outcome(False, Memory.HEAP_BASE, "store_ptr", "gap", 8, 2**64)
    assert stored[0][1].__name__ == "error"     # struct.error before the map
    stored = _outcome(False, Memory.HEAP_BASE, "slot_f32", "heap-first", 8, 1e300)
    assert stored[0][:2] == ("raised", OverflowError)
