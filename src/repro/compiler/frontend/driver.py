"""Frontend driver: source text in, verified IR module out."""

from __future__ import annotations

from repro.compiler.frontend.codegen import CodeGenerator
from repro.compiler.frontend.parser import Parser
from repro.compiler.frontend.sema import SemanticAnalyzer
from repro.compiler.ir.module import Module
from repro.compiler.ir.verifier import verify_module


def compile_source(source: str, filename: str = "<source>") -> Module:
    """Compile KernelC *source* into a verified IR module named *filename*.

    *filename* is also used in diagnostics and attached to instructions as
    source locations (and therefore visible in roofline reports).
    """
    unit = Parser(source, filename).parse()
    SemanticAnalyzer(unit).analyze()
    module = CodeGenerator(unit).generate()
    verify_module(module)
    return module
