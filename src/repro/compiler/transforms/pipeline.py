"""Standard pass pipelines.

Two pipelines are provided:

* :func:`default_optimization_pipeline` -- the "-O" style cleanup +
  vectorisation pipeline, used for baseline (non-instrumented) builds;
* :func:`build_roofline_pipeline` -- the same pipeline with the Roofline
  instrumentation pass appended *last*, matching the paper's choice to apply
  instrumentation late so earlier optimisations cannot distort the counts.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.compiler.transforms.constfold import ConstantFoldPass
from repro.compiler.transforms.dce import DeadCodeEliminationPass
from repro.compiler.transforms.pass_manager import PassManager
from repro.compiler.transforms.regpromote import PromoteScalarsPass
from repro.compiler.transforms.roofline_pass import RooflineInstrumentationPass
from repro.compiler.transforms.simplifycfg import SimplifyCfgPass
from repro.compiler.transforms.vectorize import LoopVectorizePass

#: Environment flag forcing per-pass IR verification in every pipeline --
#: the one switch for it outside an explicit ``PassManager(verify_each=)``.
VERIFY_IR_ENV = "REPRO_VERIFY_IR"


def verify_ir_requested() -> bool:
    """Whether the :data:`VERIFY_IR_ENV` debug flag is set (and truthy)."""
    return os.environ.get(VERIFY_IR_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def resolve_verify_each(verify_each: Optional[bool]) -> bool:
    """An explicit choice wins; ``None`` defers to :data:`VERIFY_IR_ENV`.

    Either way the module is verified once after the pipeline completes
    (:meth:`PassManager.run`); per-pass verification exists to *localise*
    which transform broke an invariant, at ~number-of-passes times the cost.
    """
    if verify_each is not None:
        return verify_each
    return verify_ir_requested()


def default_optimization_pipeline(vector_width: int = 8,
                                  enable_vectorizer: bool = True,
                                  promote_scalars: bool = True,
                                  verify_each: Optional[bool] = None,
                                  ) -> PassManager:
    """Cleanup + scalar promotion + (optional) vectorisation, no instrumentation."""
    manager = PassManager(verify_each=resolve_verify_each(verify_each))
    manager.add(ConstantFoldPass())
    manager.add(SimplifyCfgPass())
    manager.add(DeadCodeEliminationPass())
    if promote_scalars:
        manager.add(PromoteScalarsPass())
    if enable_vectorizer and vector_width > 1:
        manager.add(LoopVectorizePass(vector_width=vector_width))
    return manager


def build_roofline_pipeline(vector_width: int = 8,
                            enable_vectorizer: bool = True,
                            promote_scalars: bool = True,
                            only_functions: Optional[List[str]] = None,
                            instrument_first: bool = False,
                            verify_each: Optional[bool] = None) -> PassManager:
    """The full pipeline with Roofline instrumentation.

    ``instrument_first=True`` deliberately mis-orders the pipeline (the
    instrumentation runs before the vectoriser); it exists for the ablation
    study of the paper's "apply the pass late" design choice.
    """
    manager = PassManager(verify_each=resolve_verify_each(verify_each))
    instrumentation = RooflineInstrumentationPass(only_functions=only_functions)
    manager.add(ConstantFoldPass())
    manager.add(SimplifyCfgPass())
    manager.add(DeadCodeEliminationPass())
    if promote_scalars:
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
