"""Tests for the KernelC frontend and the execution engine (semantics)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.frontend import compile_source
from repro.compiler.frontend.lexer import Lexer, LexerError, TokenKind
from repro.compiler.frontend.parser import ParseError, Parser
from repro.compiler.frontend.sema import SemanticAnalyzer, SemanticError
from repro.vm import ExecutionEngine, ExternalCallError, Memory
from repro.workloads.kernels import (
    DOT_PRODUCT_SOURCE,
    MATMUL_NAIVE_SOURCE,
    MATMUL_TILED_SOURCE,
    STENCIL_SOURCE,
    STREAM_TRIAD_SOURCE,
)


def run_function(source, name, args, memory=None):
    module = compile_source(source, "test.c")
    engine = ExecutionEngine(module, memory=memory or Memory())
    return engine.run(name, args)


class TestLexer:
    def test_tokens(self):
        tokens = Lexer("long x = 42; // comment\nfloat y = 1.5f;").tokens()
        kinds = [t.kind for t in tokens]
        assert TokenKind.KEYWORD in kinds
        assert TokenKind.INT_LITERAL in kinds
        assert TokenKind.FLOAT_LITERAL in kinds
        assert tokens[-1].kind is TokenKind.EOF

    def test_block_comments_skipped(self):
        tokens = Lexer("/* hi \n there */ int x;").tokens()
        assert tokens[0].is_keyword("int")

    def test_unknown_character(self):
        with pytest.raises(LexerError):
            Lexer("int x = @;").tokens()


class TestParserAndSema:
    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError):
            Parser("void f( {}").parse()

    def test_undeclared_identifier(self):
        unit = Parser("long f() { return y; }").parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()

    def test_redeclaration(self):
        unit = Parser("void f() { long x = 0; long x = 1; }").parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()

    def test_void_return_with_value(self):
        unit = Parser("void f() { return 1; }").parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()

    def test_call_arity_checked(self):
        source = "long g(long x) { return x; } long f() { return g(1, 2); }"
        unit = Parser(source).parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()

    def test_break_outside_loop(self):
        unit = Parser("void f() { break; }").parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()

    def test_subscript_of_scalar(self):
        unit = Parser("long f(long x) { return x[0]; }").parse()
        with pytest.raises(SemanticError):
            SemanticAnalyzer(unit).analyze()


class TestExecutionSemantics:
    def test_arithmetic_and_control_flow(self):
        source = """
        long collatz_steps(long x) {
          long steps = 0;
          while (x > 1) {
            if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
            steps++;
          }
          return steps;
        }
        """
        assert run_function(source, "collatz_steps", [6]) == 8
        assert run_function(source, "collatz_steps", [1]) == 0

    def test_for_loop_sum(self):
        source = """
        long sum_to(long n) {
          long total = 0;
          for (long i = 1; i <= n; i++) { total += i; }
          return total;
        }
        """
        assert run_function(source, "sum_to", [100]) == 5050

    def test_break_and_continue(self):
        source = """
        long count_odds_until(long limit, long stop) {
          long count = 0;
          for (long i = 0; i < limit; i++) {
            if (i == stop) { break; }
            if (i % 2 == 0) { continue; }
            count++;
          }
          return count;
        }
        """
        assert run_function(source, "count_odds_until", [100, 10]) == 5

    def test_float_math_and_casts(self):
        source = """
        float average(float* values, long n) {
          float total = 0.0;
          for (long i = 0; i < n; i++) { total += values[i]; }
          return total / (float)n;
        }
        """
        memory = Memory()
        address = memory.alloc_float_array([1.0, 2.0, 3.0, 4.0])
        result = run_function(source, "average", [address, 4], memory)
        assert result == pytest.approx(2.5)

    def test_nested_function_calls(self):
        source = """
        long square(long x) { return x * x; }
        long sum_of_squares(long n) {
          long total = 0;
          for (long i = 1; i <= n; i++) { total += square(i); }
          return total;
        }
        """
        assert run_function(source, "sum_of_squares", [5]) == 55

    def test_builtin_math_external(self):
        source = "float root(float x) { return sqrtf(x); }"
        assert run_function(source, "root", [9.0]) == pytest.approx(3.0)

    def test_unknown_external_raises(self):
        from repro.compiler.ir import FunctionType, F32
        module = compile_source("float f(float x) { return x; }", "t.c")
        module.declare_function("mystery", FunctionType(F32, [F32]))
        from repro.compiler.ir.builder import IRBuilder
        function = module.get_function("f")
        # Rewire f to call the unknown external.
        engine = ExecutionEngine(module)
        with pytest.raises(ExternalCallError):
            engine._dispatch_external("mystery", [1.0])

    def test_dot_product_matches_python(self):
        memory = Memory()
        a = [0.5 * i for i in range(64)]
        b = [1.0 - 0.01 * i for i in range(64)]
        pa = memory.alloc_float_array(a)
        pb = memory.alloc_float_array(b)
        result = run_function(DOT_PRODUCT_SOURCE, "dot", [pa, pb, 64], memory)
        import struct
        expected = 0.0
        for x, y in zip(a, b):
            x32 = struct.unpack("<f", struct.pack("<f", x))[0]
            y32 = struct.unpack("<f", struct.pack("<f", y))[0]
            expected += x32 * y32
        assert result == pytest.approx(expected, rel=1e-5)

    def test_triad_and_stencil_write_expected_values(self):
        memory = Memory()
        n = 32
        b = [float(i) for i in range(n)]
        c = [2.0] * n
        pa = memory.alloc_float_array([0.0] * n)
        pb = memory.alloc_float_array(b)
        pc = memory.alloc_float_array(c)
        run_function(STREAM_TRIAD_SOURCE, "triad", [pa, pb, pc, 3.0, n], memory)
        result = memory.read_float_array(pa, n)
        assert result == pytest.approx([b[i] + 3.0 * c[i] for i in range(n)])

    @pytest.mark.parametrize("source,name", [
        (MATMUL_TILED_SOURCE, "matmul_tiled"),
        (MATMUL_NAIVE_SOURCE, "matmul_naive"),
    ])
    def test_matmul_matches_numpy(self, source, name):
        import numpy as np
        n = 8
        memory = Memory()
        rng = np.random.default_rng(3)
        a = rng.random(n * n, dtype=np.float32)
        b = rng.random(n * n, dtype=np.float32)
        pa = memory.alloc_float_array(list(map(float, a)))
        pb = memory.alloc_float_array(list(map(float, b)))
        pc = memory.alloc_float_array([0.0] * (n * n))
        run_function(source, name, [pa, pb, pc, n], memory)
        got = np.array(memory.read_float_array(pc, n * n), dtype=np.float32)
        expected = (a.reshape(n, n) @ b.reshape(n, n)).flatten()
        assert np.allclose(got, expected, rtol=1e-4)


class TestMemoryModel:
    def test_malloc_alignment_and_growth(self):
        memory = Memory()
        a = memory.malloc(100)
        b = memory.malloc(100)
        assert b > a
        assert a % 16 == 0 and b % 16 == 0

    def test_typed_roundtrip(self):
        from repro.compiler.ir import F32, F64, I32, I64
        memory = Memory()
        address = memory.malloc(64)
        memory.store_typed(address, I64, -123456789)
        assert memory.load_typed(address, I64) == -123456789
        memory.store_typed(address + 8, F64, 3.25)
        assert memory.load_typed(address + 8, F64) == 3.25
        memory.store_typed(address + 16, F32, 1.5)
        assert memory.load_typed(address + 16, F32) == 1.5
        memory.store_typed(address + 24, I32, 2 ** 31)  # wraps
        assert memory.load_typed(address + 24, I32) == -(2 ** 31)

    def test_unmapped_access_raises(self):
        from repro.vm.memory import MemoryError_
        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.read_bytes(0x999999999, 8)

    def test_heap_base_places_the_heap_below_the_stack(self):
        from repro.vm.memory import MemoryError_
        base = Memory.HEAP_BASE + 0x0100_0000
        memory = Memory(heap_base=base)
        assert memory.malloc(8) == base
        with pytest.raises(MemoryError_):
            memory.read_bytes(Memory.HEAP_BASE, 1)
        highest = Memory.STACK_BASE - Memory.HEAP_SIZE
        assert Memory(heap_base=highest).malloc(8) == highest
        for bad in (0, highest + 16, Memory.STACK_BASE):
            with pytest.raises(MemoryError_, match="no room below the stack"):
                Memory(heap_base=bad)

    def test_stack_frames_reset(self):
        memory = Memory()
        token = memory.push_stack_frame()
        first = memory.stack_alloc(64)
        memory.pop_stack_frame(token)
        token2 = memory.push_stack_frame()
        second = memory.stack_alloc(64)
        assert first == second

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_float_array_roundtrip(self, values):
        import struct
        memory = Memory()
        address = memory.alloc_float_array(values)
        expected = [struct.unpack("<f", struct.pack("<f", v))[0] for v in values]
        assert memory.read_float_array(address, len(values)) == pytest.approx(expected)
