"""Tests for CFG analyses, loop/region detection and the transformation passes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.analysis import DominatorTree, LoopInfo, RegionInfo, reverse_postorder
from repro.compiler.analysis.cfg import predecessors, reachable_blocks
from repro.compiler.frontend import compile_source
from repro.compiler.ir import print_module, verify_module
from repro.compiler.transforms import (
    CodeExtractor,
    ConstantFoldPass,
    DeadCodeEliminationPass,
    LoopVectorizePass,
    PromoteScalarsPass,
    RooflineInstrumentationPass,
    SimplifyCfgPass,
    build_roofline_pipeline,
    clone_function,
    default_optimization_pipeline,
)
from repro.compiler.transforms.regpromote import REG_PROMOTED_KEY
from repro.compiler.transforms.roofline_pass import MPERF_LOOPS_KEY
from repro.compiler.transforms.vectorize import VECTOR_WIDTH_KEY
from repro.vm import ExecutionEngine, Memory
from repro.workloads.kernels import MATMUL_TILED_SOURCE

DOT_SOURCE = """
float dot(float* a, float* b, long n) {
  float sum = 0.0;
  for (long i = 0; i < n; i++) {
    sum += a[i] * b[i];
  }
  return sum;
}
"""

NESTED_SOURCE = """
void smooth(float* dst, float* src, long n, long iters) {
  for (long it = 0; it < iters; it++) {
    for (long i = 1; i < n - 1; i++) {
      dst[i] = 0.5f * (src[i - 1] + src[i + 1]);
    }
  }
}
"""


class TestAnalyses:
    def test_dominators_of_loop(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        function = module.get_function("dot")
        domtree = DominatorTree(function)
        entry = function.entry_block
        assert domtree.immediate_dominator(entry) is None
        for block in function.blocks:
            assert domtree.dominates(entry, block)
        rpo = reverse_postorder(function)
        assert rpo[0] is entry
        assert set(rpo) == reachable_blocks(function)

    def test_dominance_frontier_of_join(self):
        source = """
        long pick(long c, long a, long b) {
          long r = 0;
          if (c > 0) { r = a; } else { r = b; }
          return r;
        }
        """
        module = compile_source(source, "pick.c")
        function = module.get_function("pick")
        domtree = DominatorTree(function)
        frontier = domtree.dominance_frontier()
        join = function.block_by_name("if.end1")
        then_block = function.block_by_name("if.then0")
        assert join is not None and then_block is not None
        assert join in frontier[then_block]

    def test_loop_info_single_loop(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        loop_info = LoopInfo(module.get_function("dot"))
        assert len(loop_info.top_level_loops) == 1
        loop = loop_info.top_level_loops[0]
        assert loop.depth == 1
        assert loop.preheader is not None
        assert loop.single_exit_block is not None
        assert loop_info.is_loop_header(loop.header)

    def test_loop_nesting_depth(self):
        module = compile_source(MATMUL_TILED_SOURCE, "mm.c")
        loop_info = LoopInfo(module.get_function("matmul_tiled"))
        assert len(loop_info.top_level_loops) == 1
        assert len(loop_info.all_loops()) == 6
        depths = sorted(l.depth for l in loop_info.all_loops())
        assert depths == [1, 2, 3, 4, 5, 6]

    def test_two_sibling_loops(self):
        module = compile_source(NESTED_SOURCE, "sm.c")
        loop_info = LoopInfo(module.get_function("smooth"))
        assert len(loop_info.top_level_loops) == 1
        assert len(loop_info.all_loops()) == 2

    def test_sese_region_for_loop_nest(self):
        module = compile_source(MATMUL_TILED_SOURCE, "mm.c")
        function = module.get_function("matmul_tiled")
        regions = RegionInfo(function).top_level_regions()
        assert len(regions) == 1
        region = regions[0]
        assert region.entry is regions[0].loop.header
        assert region.exit not in region.blocks

    def test_loop_with_return_is_not_sese(self):
        source = """
        long find(long* values, long n, long needle) {
          for (long i = 0; i < n; i++) {
            if (values[i] == needle) { return i; }
          }
          return 0 - 1;
        }
        """
        module = compile_source(source, "find.c")
        function = module.get_function("find")
        region_info = RegionInfo(function)
        assert region_info.top_level_regions() == []


class TestCleanupPasses:
    def test_constant_folding(self):
        source = "long f(long x) { return x + 2 * 3 + (10 - 4); }"
        module = compile_source(source, "f.c")
        pass_ = ConstantFoldPass()
        changed = pass_.run_on_function(module.get_function("f"))
        assert changed
        verify_module(module)
        engine = ExecutionEngine(module)
        assert engine.run("f", [1]) == 13

    def test_dce_removes_unused(self):
        # The expression statement computes a value nothing consumes.
        source = "long f(long x) { x * 17; return x; }"
        module = compile_source(source, "f.c")
        before = module.get_function("f").instruction_count()
        DeadCodeEliminationPass().run_on_function(module.get_function("f"))
        verify_module(module)
        assert module.get_function("f").instruction_count() < before
        assert ExecutionEngine(module).run("f", [5]) == 5

    def test_simplifycfg_merges_blocks(self):
        source = "long f(long x) { if (1) { x = x + 1; } return x; }"
        module = compile_source(source, "f.c")
        function = module.get_function("f")
        ConstantFoldPass().run_on_function(function)
        before = len(function.blocks)
        SimplifyCfgPass().run_on_function(function)
        verify_module(module)
        assert len(function.blocks) < before
        assert ExecutionEngine(module).run("f", [4]) == 5

    def test_promote_scalars_marks_locals_not_arrays(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        function = module.get_function("dot")
        PromoteScalarsPass().run_on_function(function)
        marked = [i for i in function.instructions()
                  if i.metadata.get(REG_PROMOTED_KEY)]
        assert marked, "scalar locals should be marked"
        # Array element accesses (through gep results) must not be marked.
        from repro.compiler.ir.instructions import GetElementPtr, Load
        for inst in function.instructions():
            if isinstance(inst, Load) and isinstance(inst.pointer, GetElementPtr):
                assert not inst.metadata.get(REG_PROMOTED_KEY)

    def test_pipeline_preserves_semantics(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        default_optimization_pipeline(vector_width=4).run(module)
        verify_module(module)
        memory = Memory()
        a = memory.alloc_float_array([1.0, 2.0, 3.0])
        b = memory.alloc_float_array([4.0, 5.0, 6.0])
        engine = ExecutionEngine(module, memory=memory)
        assert engine.run("dot", [a, b, 3]) == pytest.approx(32.0)


class TestVectorizer:
    def test_reduction_loop_is_vectorized(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        function = module.get_function("dot")
        PromoteScalarsPass().run_on_function(function)
        pass_ = LoopVectorizePass(vector_width=8)
        assert pass_.run_on_function(function)
        annotated = [i for i in function.instructions()
                     if i.metadata.get(VECTOR_WIDTH_KEY) == 8]
        assert annotated
        assert function.metadata.get("mperf.vector_loops")

    def test_loop_with_call_not_vectorized(self):
        source = """
        float helper(float x) { return x * 2.0f; }
        float apply(float* a, long n) {
          float sum = 0.0;
          for (long i = 0; i < n; i++) { sum += helper(a[i]); }
          return sum;
        }
        """
        module = compile_source(source, "a.c")
        function = module.get_function("apply")
        pass_ = LoopVectorizePass(vector_width=8)
        pass_.run_on_function(function)
        assert pass_.statistics["rejected_calls"] >= 1
        assert not any(i.metadata.get(VECTOR_WIDTH_KEY) for i in function.instructions())

    def test_only_innermost_loops_annotated(self):
        module = compile_source(MATMUL_TILED_SOURCE, "mm.c")
        function = module.get_function("matmul_tiled")
        pass_ = LoopVectorizePass(vector_width=8)
        pass_.run_on_function(function)
        assert pass_.statistics["vectorized"] == 1


class TestExtractorAndInstrumentation:
    def test_extractor_outlines_loop_and_preserves_semantics(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        function = module.get_function("dot")
        region = RegionInfo(function).top_level_regions()[0]
        result = CodeExtractor(function, region).extract("dot_loop0_outlined")
        verify_module(module)
        assert result.outlined_function.name == "dot_loop0_outlined"
        assert module.has_function("dot_loop0_outlined")
        memory = Memory()
        a = memory.alloc_float_array([1.0, 2.0, 3.0, 4.0])
        b = memory.alloc_float_array([1.0, 1.0, 1.0, 1.0])
        engine = ExecutionEngine(module, memory=memory)
        assert engine.run("dot", [a, b, 4]) == pytest.approx(10.0)

    def test_clone_function_is_independent(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        original = module.get_function("dot")
        from repro.compiler.ir import PTR
        clone = clone_function(module, original, "dot_copy", extra_params=[(PTR, "h")])
        verify_module(module)
        assert len(clone.args) == len(original.args) + 1
        assert clone.instruction_count() == original.instruction_count()
        # Mutating the clone must not affect the original.
        clone.blocks[0].instructions[0].metadata["touched"] = True
        assert "touched" not in original.blocks[0].instructions[0].metadata

    def test_roofline_pass_creates_versions_and_dispatch(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        pipeline = build_roofline_pipeline(vector_width=4)
        pipeline.run(module)
        verify_module(module)
        names = set(module.functions)
        assert "dot_loop0_outlined" in names
        assert "dot_loop0_instrumented" in names
        assert MPERF_LOOPS_KEY in module.metadata
        descriptor = module.metadata[MPERF_LOOPS_KEY][0]
        assert descriptor.function == "dot"
        assert descriptor.filename.endswith(".c")

    def test_instrumented_clone_counts_match_block_structure(self):
        from repro.compiler.transforms.roofline_pass import RUNTIME_BLOCK_EXEC
        module = compile_source(DOT_SOURCE, "dot.c")
        build_roofline_pipeline(vector_width=4).run(module)
        instrumented = module.get_function("dot_loop0_instrumented")
        from repro.compiler.ir.instructions import Call
        calls = [i for i in instrumented.instructions()
                 if isinstance(i, Call) and i.callee_name == RUNTIME_BLOCK_EXEC]
        # One counting call per basic block.
        assert len(calls) == len(instrumented.blocks)

    def test_instrumented_semantics_identical(self):
        from repro.platforms import spacemit_x60, Machine
        from repro.compiler.targets import target_for_platform
        from repro.runtime import RooflineRuntime
        module = compile_source(DOT_SOURCE, "dot.c")
        build_roofline_pipeline(vector_width=4).run(module)
        descriptor = spacemit_x60()
        for instrumented in (False, True):
            machine = Machine(descriptor)
            memory = Memory()
            a = memory.alloc_float_array([2.0] * 16)
            b = memory.alloc_float_array([0.5] * 16)
            runtime = RooflineRuntime(module, machine, instrumented=instrumented)
            engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                                     memory=memory, external_handlers=[runtime])
            assert engine.run("dot", [a, b, 16]) == pytest.approx(16.0)
            assert len(runtime.records) == 1
            record = runtime.records[0]
            if instrumented:
                assert record.fp_ops == 2 * 16
                assert record.total_bytes == 16 * 8   # two f32 loads per element
            else:
                assert record.fp_ops == 0             # baseline records time only

    def test_instrument_first_ablation_still_verifies(self):
        module = compile_source(DOT_SOURCE, "dot.c")
        build_roofline_pipeline(vector_width=4, instrument_first=True).run(module)
        verify_module(module)
        assert module.has_function("dot_loop0_instrumented")


class TestVerifyEachWiring:
    """Satellite of the static-analysis subsystem: the IR verifier runs
    between passes when requested, and failures localise the culprit."""

    def _module(self):
        return compile_source(DOT_SOURCE, "dot.c")

    def test_broken_pass_is_named_with_function_and_block(self):
        from repro.compiler.ir.verifier import VerificationError
        from repro.compiler.transforms.pass_manager import ModulePass, PassManager

        class DropTerminators(ModulePass):
            name = "drop-terminators"

            def run_on_module(self, module):
                for function in module.defined_functions():
                    entry = function.entry_block
                    entry.instructions = [i for i in entry.instructions
                                          if not i.is_terminator]
                return True

        manager = PassManager(verify_each=True)
        manager.add(ConstantFoldPass()).add(DropTerminators())
        with pytest.raises(VerificationError) as excinfo:
            manager.run(self._module())
        message = str(excinfo.value)
        assert "after pass 'drop-terminators'" in message
        assert "dot/entry" in message and "terminator" in message

    def test_without_verify_each_one_final_verification_still_guards(self):
        from repro.compiler.ir.verifier import VerificationError
        from repro.compiler.transforms.pass_manager import ModulePass, PassManager

        class DropTerminators(ModulePass):
            name = "drop-terminators"

            def run_on_module(self, module):
                for function in module.defined_functions():
                    entry = function.entry_block
                    entry.instructions = [i for i in entry.instructions
                                          if not i.is_terminator]
                return True

        manager = PassManager(verify_each=False)
        manager.add(DropTerminators())
        with pytest.raises(VerificationError, match="after the pass pipeline"):
            manager.run(self._module())

    def test_env_flag_requests_verification(self, monkeypatch):
        from repro.compiler.ir.verifier import VERIFY_IR_ENV, verify_ir_requested
        from repro.compiler.transforms.pipeline import resolve_verify_each

        monkeypatch.delenv(VERIFY_IR_ENV, raising=False)
        assert not verify_ir_requested()
        assert resolve_verify_each(None) is False
        assert resolve_verify_each(True) is True
        monkeypatch.setenv(VERIFY_IR_ENV, "1")
        assert verify_ir_requested()
        assert resolve_verify_each(None) is True
        assert resolve_verify_each(False) is False
        monkeypatch.setenv(VERIFY_IR_ENV, "0")
        assert not verify_ir_requested()

    def test_env_flag_verifies_through_compile_cache(self, monkeypatch):
        from repro.compiler.cache import compile_source_cached
        from repro.compiler.ir.verifier import VERIFY_IR_ENV
        from repro.platforms import spacemit_x60

        monkeypatch.setenv(VERIFY_IR_ENV, "1")
        # A verified compile produces the same (cached) module.
        module = compile_source_cached(DOT_SOURCE, "dot.c", spacemit_x60(),
                                       True)
        assert module.get_function("dot") is not None
