"""LLVM-like compiler infrastructure.

The paper's second contribution is a compiler pass that instruments loop
nests at the IR level to count memory traffic and arithmetic operations
without any PMU involvement.  This package provides the infrastructure that
pass needs, built from scratch:

* :mod:`repro.compiler.ir` -- a typed, SSA-style intermediate representation
  with a builder, textual printer/parser and verifier.
* :mod:`repro.compiler.analysis` -- CFG utilities, dominators, natural-loop
  detection (LoopInfo) and single-entry/single-exit region analysis
  (RegionInfo).
* :mod:`repro.compiler.transforms` -- the pass manager, cleanup passes, the
  loop vectorisation annotator, the CodeExtractor outliner and the
  Roofline instrumentation pass itself.
* :mod:`repro.compiler.frontend` -- a small C-like kernel language (lexer,
  parser, semantic analysis, IR code generation) so the paper's tiled matmul
  kernel can be compiled from source text.
* :mod:`repro.compiler.targets` -- per-target lowering cost models (RV64GC,
  RV64GCV, x86-64 AVX2) used by the execution engine.

The re-exported names load the IR on first access, so importing
:mod:`repro.compiler.cache` alone stays cheap.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Module": "repro.compiler.ir.module",
    "Function": "repro.compiler.ir.module",
    "BasicBlock": "repro.compiler.ir.module",
    "IRBuilder": "repro.compiler.ir.builder",
    "verify_module": "repro.compiler.ir.verifier",
    "VerificationError": "repro.compiler.ir.verifier",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
