"""Transformation passes.

The pipeline the toolchain runs (mirroring the paper's "apply our pass late
in the optimization pipeline" guidance):

1. cleanup (constant folding, DCE, CFG simplification),
2. loop vectorisation annotation (the cost-model stand-in for LLVM's
   vectoriser),
3. Roofline instrumentation (outline SESE loop nests, clone, insert counting
   and runtime notification calls).

The re-exported names load their pass on first access, so importing one
pass module (the execution engine needs two) loads no other.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FunctionPass": "repro.compiler.transforms.pass_manager",
    "ModulePass": "repro.compiler.transforms.pass_manager",
    "PassManager": "repro.compiler.transforms.pass_manager",
    "PassResult": "repro.compiler.transforms.pass_manager",
    "ConstantFoldPass": "repro.compiler.transforms.constfold",
    "DeadCodeEliminationPass": "repro.compiler.transforms.dce",
    "SimplifyCfgPass": "repro.compiler.transforms.simplifycfg",
    "clone_function": "repro.compiler.transforms.cloning",
    "PromoteScalarsPass": "repro.compiler.transforms.regpromote",
    "REG_PROMOTED_KEY": "repro.compiler.transforms.regpromote",
    "LoopVectorizePass": "repro.compiler.transforms.vectorize",
    "CodeExtractor": "repro.compiler.transforms.extractor",
    "ExtractionResult": "repro.compiler.transforms.extractor",
    "RooflineInstrumentationPass": "repro.compiler.transforms.roofline_pass",
    "LoopDescriptor": "repro.compiler.transforms.roofline_pass",
    "MPERF_LOOPS_KEY": "repro.compiler.transforms.roofline_pass",
    "RUNTIME_NOTIFY_BEGIN": "repro.compiler.transforms.roofline_pass",
    "RUNTIME_NOTIFY_END": "repro.compiler.transforms.roofline_pass",
    "RUNTIME_IS_INSTRUMENTED": "repro.compiler.transforms.roofline_pass",
    "RUNTIME_BLOCK_EXEC": "repro.compiler.transforms.roofline_pass",
    "default_optimization_pipeline": "repro.compiler.transforms.pipeline",
    "build_roofline_pipeline": "repro.compiler.transforms.pipeline",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
