"""Standard pass pipelines.

Two pipelines are provided:

* :func:`default_optimization_pipeline` -- the "-O" style cleanup +
  vectorisation pipeline, used for baseline (non-instrumented) builds;
* :func:`build_roofline_pipeline` -- the same pipeline with the Roofline
  instrumentation pass appended *last*, matching the paper's choice to apply
  instrumentation late so earlier optimisations cannot distort the counts.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.ir.verifier import verify_ir_requested
from repro.compiler.transforms.constfold import ConstantFoldPass
from repro.compiler.transforms.dce import DeadCodeEliminationPass
from repro.compiler.transforms.pass_manager import PassManager
from repro.compiler.transforms.regpromote import PromoteScalarsPass
from repro.compiler.transforms.roofline_pass import RooflineInstrumentationPass
from repro.compiler.transforms.simplifycfg import SimplifyCfgPass
from repro.compiler.transforms.vectorize import LoopVectorizePass


def resolve_verify_each(verify_each: Optional[bool]) -> bool:
    """An explicit choice wins; ``None`` defers to ``REPRO_VERIFY_IR``.

    Either way the module is verified once after the pipeline completes
    (:meth:`PassManager.run`); per-pass verification exists to *localise*
    which transform broke an invariant, at ~number-of-passes times the cost.
    """
    if verify_each is not None:
        return verify_each
    return verify_ir_requested()


def default_optimization_pipeline(vector_width: int = 8,
                                  enable_vectorizer: bool = True,
                                  verify_each: Optional[bool] = None,
                                  ) -> PassManager:
    """Cleanup + scalar promotion + (optional) vectorisation, no instrumentation."""
    manager = PassManager(verify_each=resolve_verify_each(verify_each))
    manager.add(ConstantFoldPass())
    manager.add(SimplifyCfgPass())
    manager.add(DeadCodeEliminationPass())
    manager.add(PromoteScalarsPass())
    if enable_vectorizer and vector_width > 1:
        manager.add(LoopVectorizePass(vector_width=vector_width))
    return manager


def build_roofline_pipeline(vector_width: int = 8,
                            enable_vectorizer: bool = True,
                            instrument_first: bool = False,
                            verify_each: Optional[bool] = None) -> PassManager:
    """The full pipeline with Roofline instrumentation.

    ``instrument_first=True`` deliberately mis-orders the pipeline (the
    instrumentation runs before the vectoriser); it exists for the ablation
    study of the paper's "apply the pass late" design choice.
    """
    manager = PassManager(verify_each=resolve_verify_each(verify_each))
    instrumentation = RooflineInstrumentationPass()
    manager.add(ConstantFoldPass())
    manager.add(SimplifyCfgPass())
    manager.add(DeadCodeEliminationPass())
    manager.add(PromoteScalarsPass())
    if instrument_first:
        manager.add(instrumentation)
        if enable_vectorizer and vector_width > 1:
            manager.add(LoopVectorizePass(vector_width=vector_width))
    else:
        if enable_vectorizer and vector_width > 1:
            manager.add(LoopVectorizePass(vector_width=vector_width))
        manager.add(instrumentation)
    return manager
