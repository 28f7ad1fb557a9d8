"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports names from heavy submodules (the compiler, the
VM, the roofline runner, the process-pool executor) declares them here
instead of importing them, so ``import repro`` and a synthetic-trace
``record`` never load code they do not run.  The first access of a name
imports its submodule and caches the value in the package namespace, so
later accesses are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each exported name to the module that defines it.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
