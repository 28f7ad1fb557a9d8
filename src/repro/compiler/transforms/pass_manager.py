"""The pass manager.

A thin re-creation of LLVM's new pass manager: passes are objects with a
``run`` method, the manager runs them in order, records per-pass statistics
and (by default) re-verifies the module after every pass so a broken
transformation cannot silently corrupt instrumentation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.compiler.ir.module import Function, Module
from repro.compiler.ir.verifier import VerificationError, verify_module
from repro.telemetry import clock


@dataclass
class PassResult:
    """Outcome of running one pass."""

    pass_name: str
    changed: bool
    seconds: float
    statistics: Dict[str, int] = field(default_factory=dict)


class FunctionPass:
    """A pass that runs once per defined function."""

    name = "function-pass"

    def run_on_function(self, function: Function) -> bool:
        """Transform *function*; return True when something changed."""
        raise NotImplementedError

    @property
    def statistics(self) -> Dict[str, int]:
        return {}


class ModulePass:
    """A pass that runs once over the whole module."""

    name = "module-pass"

    def run_on_module(self, module: Module) -> bool:
        raise NotImplementedError

    @property
    def statistics(self) -> Dict[str, int]:
        return {}


class PassManager:
    """Runs a sequence of passes over a module."""

    def __init__(self, verify_each: bool = True):
        self.verify_each = verify_each
        self._passes: List[Union[FunctionPass, ModulePass]] = []
        self.results: List[PassResult] = []

    def add(self, pass_: Union[FunctionPass, ModulePass]) -> "PassManager":
        self._passes.append(pass_)
        return self

    def run(self, module: Module) -> List[PassResult]:
        """Run the pipeline; the module is verified either way.

        With ``verify_each`` the verifier runs after every pass and a
        failure names the pass that broke the module; without it one
        verification runs after the whole pipeline (same guarantee, one
        pass-pipeline's worth cheaper, but the culprit is not localised --
        re-run with ``REPRO_VERIFY_IR=1`` or ``verify_each=True`` to find
        it).
        """
        self.results = []
        for pass_ in self._passes:
            start = clock()
            changed = self._run_one(pass_, module)
            elapsed = clock() - start
            self.results.append(
                PassResult(
                    pass_name=pass_.name,
                    changed=changed,
                    seconds=elapsed,
                    statistics=dict(pass_.statistics),
                )
            )
            if self.verify_each:
                self._verify(module, after=pass_.name)
        if not self.verify_each:
            self._verify(module, after=None)
        return self.results

    @staticmethod
    def _verify(module: Module, after: Optional[str]) -> None:
        try:
            verify_module(module)
        except VerificationError as error:
            context = (f"after pass {after!r}" if after
                       else "after the pass pipeline")
            raise VerificationError(
                [f"[{context}] {message}" for message in error.errors]
            ) from None

    def _run_one(self, pass_: Union[FunctionPass, ModulePass], module: Module) -> bool:
        if isinstance(pass_, ModulePass):
            return pass_.run_on_module(module)
        changed = False
        for function in list(module.defined_functions()):
            if pass_.run_on_function(function):
                changed = True
        return changed

    def summary(self) -> str:
        lines = ["pass results:"]
        for result in self.results:
            stats = ", ".join(f"{k}={v}" for k, v in result.statistics.items())
            lines.append(
                f"  {result.pass_name:<28} changed={str(result.changed):<5} "
                f"{result.seconds * 1e3:7.2f} ms  {stats}"
            )
        return "\n".join(lines)
