"""The Roofline instrumentation pass (the paper's Section 4.2).

For every function, the pass:

1. identifies top-level loop nests (LoopInfo) and checks they form SESE
   regions (RegionInfo);
2. outlines each such region into ``<func>_loop<N>_outlined`` (CodeExtractor);
3. clones the outlined function into ``<func>_loop<N>_instrumented`` with an
   extra trailing ``i8*`` loop-handle parameter;
4. inserts, at the top of every basic block of the instrumented clone, a call
   to ``mperf_roofline_internal_block_exec(handle, loaded, stored, intops,
   fpops)`` carrying that block's statically known per-execution counts
   (bytes loaded, bytes stored, integer ops, floating-point ops);
5. rewrites the original call site into the two-version dispatch of the
   paper's pseudo-code::

       LoopHandle *LH = mperf_roofline_internal_notify_loop_begin(LI);
       if (mperf_roofline_internal_is_instrumented_profiling())
           f_loop0_instrumented(args..., LH);
       else
           f_loop0_outlined(args...);
       mperf_roofline_internal_notify_loop_end(LH);

Loop metadata (function name, source file/line) is registered in the module's
``mperf.loops`` table keyed by a small integer loop id, which is what the
``notify_loop_begin`` call passes to the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.analysis.regions import RegionInfo
from repro.compiler.ir.instructions import BinaryOp, Branch, Call, Jump, Load, Store
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import FunctionType, I1, I64, PTR, VOID
from repro.compiler.ir.values import Constant
from repro.compiler.transforms.cloning import clone_function
from repro.compiler.transforms.extractor import CodeExtractor, ExtractionError
from repro.compiler.transforms.pass_manager import ModulePass

#: Module metadata key holding the loop-id -> LoopDescriptor table.
MPERF_LOOPS_KEY = "mperf.loops"

# Runtime entry points (implemented in repro.runtime and dispatched by the VM).
RUNTIME_NOTIFY_BEGIN = "mperf_roofline_internal_notify_loop_begin"
RUNTIME_NOTIFY_END = "mperf_roofline_internal_notify_loop_end"
RUNTIME_IS_INSTRUMENTED = "mperf_roofline_internal_is_instrumented_profiling"
RUNTIME_BLOCK_EXEC = "mperf_roofline_internal_block_exec"

#: Function-name suffixes produced by this pass (skipped on re-runs).
OUTLINED_SUFFIX = "_outlined"
INSTRUMENTED_SUFFIX = "_instrumented"


@dataclass(frozen=True)
class LoopDescriptor:
    """The ``LoopInfo`` struct of the paper's pseudo-code."""

    loop_id: int
    function: str
    filename: str
    line: int
    outlined_name: str
    instrumented_name: str

    def label(self) -> str:
        location = f"{self.filename}:{self.line}" if self.filename else "<unknown>"
        return f"{self.function} loop#{self.loop_id} @ {location}"


@dataclass
class BlockCounts:
    """Static per-execution counts of one basic block."""

    loaded_bytes: int = 0
    stored_bytes: int = 0
    int_ops: int = 0
    fp_ops: int = 0

    @staticmethod
    def of(block: BasicBlock) -> "BlockCounts":
        from repro.compiler.transforms.regpromote import REG_PROMOTED_KEY

        counts = BlockCounts()
        for inst in block.instructions:
            if isinstance(inst, Load):
                if not inst.metadata.get(REG_PROMOTED_KEY):
                    counts.loaded_bytes += inst.loaded_bytes
            elif isinstance(inst, Store):
                if not inst.metadata.get(REG_PROMOTED_KEY):
                    counts.stored_bytes += inst.stored_bytes
            elif isinstance(inst, BinaryOp):
                lanes = inst.element_count
                if inst.is_float_op:
                    counts.fp_ops += lanes
                else:
                    counts.int_ops += lanes
        return counts


class RooflineInstrumentationPass(ModulePass):
    """Outline loop nests and add roofline counting instrumentation."""

    name = "roofline-instrument"

    def __init__(self, only_functions: Optional[List[str]] = None):
        #: Restrict instrumentation to these function names (None = all).
        self.only_functions = only_functions
        self._instrumented_loops = 0
        self._skipped_non_sese = 0

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "instrumented_loops": self._instrumented_loops,
            "skipped_non_sese": self._skipped_non_sese,
        }

    # -- runtime declarations ----------------------------------------------------------

    @staticmethod
    def declare_runtime(module: Module) -> None:
        module.declare_function(RUNTIME_NOTIFY_BEGIN, FunctionType(PTR, [I64]))
        module.declare_function(RUNTIME_NOTIFY_END, FunctionType(VOID, [PTR]))
        module.declare_function(RUNTIME_IS_INSTRUMENTED, FunctionType(I1, []))
        module.declare_function(
            RUNTIME_BLOCK_EXEC, FunctionType(VOID, [PTR, I64, I64, I64, I64])
        )

    # -- main entry -----------------------------------------------------------------------

    def run_on_module(self, module: Module) -> bool:
        self.declare_runtime(module)
        loops_table: Dict[int, LoopDescriptor] = dict(
            module.metadata.get(MPERF_LOOPS_KEY, {})
        )
        changed = False

        for function in list(module.defined_functions()):
            if self._should_skip(function):
                continue
            changed |= self._instrument_function(module, function, loops_table)

        if loops_table:
            module.metadata[MPERF_LOOPS_KEY] = loops_table
        return changed

    def _should_skip(self, function: Function) -> bool:
        if function.name.endswith(OUTLINED_SUFFIX):
            return True
        if function.name.endswith(INSTRUMENTED_SUFFIX):
            return True
        if function.name.startswith("mperf_roofline_internal"):
            return True
        if self.only_functions is not None and function.name not in self.only_functions:
            return True
        return False

    # -- per-function work --------------------------------------------------------------------

    def _instrument_function(self, module: Module, function: Function,
                             loops_table: Dict[int, LoopDescriptor]) -> bool:
        changed = False
        loop_index = 0
        # Regions are recomputed after each extraction because outlining
        # changes the CFG of the original function.
        while True:
            region_info = RegionInfo(function)
            regions = region_info.top_level_regions()
            non_sese = len(region_info.loop_info.top_level_loops) - len(regions)
            if loop_index == 0:
                self._skipped_non_sese += max(0, non_sese)
            if not regions:
                break
            region = regions[0]
            loop = region.loop
            loop_id = len(loops_table)
            base = f"{function.name}_loop{loop_index}"
            try:
                extraction = CodeExtractor(function, region).extract(
                    f"{base}{OUTLINED_SUFFIX}"
                )
            except ExtractionError:
                self._skipped_non_sese += 1
                break

            instrumented = clone_function(
                module,
                extraction.outlined_function,
                f"{base}{INSTRUMENTED_SUFFIX}",
                extra_params=[(PTR, "mperf.handle")],
            )
            self._add_block_counters(instrumented)

            descriptor = LoopDescriptor(
                loop_id=loop_id,
                function=function.name,
                filename=loop.header_file() or function.source_file,
                line=loop.header_line(),
                outlined_name=extraction.outlined_function.name,
                instrumented_name=instrumented.name,
            )
            loops_table[loop_id] = descriptor

            self._rewrite_call_site(module, function, extraction, instrumented, loop_id)

            self._instrumented_loops += 1
            loop_index += 1
            changed = True
        return changed

    def _add_block_counters(self, instrumented: Function) -> None:
        """Insert the per-block counting call at the top of every block."""
        module = instrumented.parent
        assert module is not None
        block_exec = module.get_function(RUNTIME_BLOCK_EXEC)
        handle = instrumented.args[-1]
        for block in instrumented.blocks:
            counts = BlockCounts.of(block)
            call = Call(
                block_exec,
                [
                    handle,
                    Constant(I64, counts.loaded_bytes),
                    Constant(I64, counts.stored_bytes),
                    Constant(I64, counts.int_ops),
                    Constant(I64, counts.fp_ops),
                ],
                VOID,
            )
            call.metadata["mperf.instrumentation"] = True
            block.insert(len(block.phis()), call)

    def _rewrite_call_site(self, module: Module, function: Function,
                           extraction, instrumented: Function, loop_id: int) -> None:
        """Turn ``call outlined(...)`` into the two-version dispatch."""
        call_block = extraction.call_block
        original_call = extraction.call_instruction
        exit_jump = call_block.terminator
        assert isinstance(exit_jump, Jump)
        exit_target = exit_jump.target

        # Empty the call block; we will rebuild it.
        for inst in list(call_block.instructions):
            call_block.remove(inst)

        notify_begin = module.get_function(RUNTIME_NOTIFY_BEGIN)
        notify_end = module.get_function(RUNTIME_NOTIFY_END)
        is_instrumented = module.get_function(RUNTIME_IS_INSTRUMENTED)

        then_block = function.add_block(function.next_block_name("mperf.instr"))
        else_block = function.add_block(function.next_block_name("mperf.base"))
        join_block = function.add_block(function.next_block_name("mperf.join"))

        handle = Call(notify_begin, [Constant(I64, loop_id)], PTR,
                      name=function.next_value_name("lh"))
        flag = Call(is_instrumented, [], I1, name=function.next_value_name("instr"))
        call_block.append(handle)
        call_block.append(flag)
        call_block.append(Branch(flag, then_block, else_block))

        then_block.append(
            Call(instrumented, list(extraction.inputs) + [handle], VOID)
        )
        then_block.append(Jump(join_block))

        else_block.append(original_call)
        original_call.parent = else_block
        else_block.append(Jump(join_block))

        join_block.append(Call(notify_end, [handle], VOID))
        join_block.append(Jump(exit_target))
