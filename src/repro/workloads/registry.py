"""Named workload registry: discoverable workloads for the session API.

``registry["sqlite3-like"]`` builds the Table-2 synthetic workload;
``registry["matmul-tiled"]`` the paper's tiled matmul kernel.  Entries are
*factories*: ``registry.create(name, **params)`` passes workload-specific
parameters (``scale`` for synthetic trees, ``n`` for kernels) and
``registry.params(name)`` lists what a factory accepts, which is how the CLI
forwards only applicable flags.

Third-party code can add its own entries with :meth:`WorkloadRegistry.register`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.workloads.kernels import (
    DOT_PRODUCT_SOURCE,
    MATMUL_NAIVE_SOURCE,
    MATMUL_TILED_SOURCE,
    MEMSET_SOURCE,
    STENCIL_SOURCE,
    STREAM_TRIAD_SOURCE,
    dot_args_builder,
    matmul_args_builder,
    memset_args_builder,
    stencil_args_builder,
    triad_args_builder,
)
from repro.workloads.sqlite3_like import sqlite3_like_workload
from repro.workloads.synthetic import InstructionMix, SyntheticFunction, SyntheticWorkload


class WorkloadRegistry(Mapping[str, object]):
    """Name -> workload-factory mapping with convenience constructors."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., object]] = {}
        self._descriptions: Dict[str, str] = {}
        self._kinds: Dict[str, Optional[str]] = {}
        self._populated = False

    # -- registration -------------------------------------------------------------------

    def register(self, name: str, factory: Callable[..., object],
                 description: str = "", kind: Optional[str] = None) -> None:
        """Add *factory* under *name*.  *kind* is the ``kind`` its workloads
        have; without it, :meth:`describe` builds one to read it."""
        # Populate builtins first so a third-party registration under a
        # builtin name sticks instead of being clobbered by the lazy fill.
        self._ensure_builtins()
        self._factories[name] = factory
        self._descriptions[name] = description
        self._kinds[name] = kind

    def _ensure_builtins(self) -> None:
        if not self._populated:
            self._populated = True
            _register_builtins(self)

    # -- lookup -------------------------------------------------------------------------

    def create(self, name: str, **params: object):
        """Instantiate a workload, passing factory-specific parameters."""
        self._ensure_builtins()
        factory = self._factories.get(name)
        if factory is None:
            raise KeyError(
                f"unknown workload {name!r}; available: {', '.join(sorted(self))}"
            )
        return factory(**params)

    def __getitem__(self, name: str):
        return self.create(name)

    def __iter__(self) -> Iterator[str]:
        """Iterate names in sorted order (stable CLI listings and errors)."""
        self._ensure_builtins()
        return iter(sorted(self._factories))

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._factories)

    def params(self, name: str) -> Tuple[str, ...]:
        """Names of the parameters *name*'s factory accepts."""
        self._ensure_builtins()
        factory = self._factories.get(name)
        if factory is None:
            raise KeyError(
                f"unknown workload {name!r}; available: {', '.join(sorted(self))}"
            )
        return tuple(inspect.signature(factory).parameters)

    def description(self, name: str) -> str:
        self._ensure_builtins()
        return self._descriptions.get(name, "")

    def describe(self) -> str:
        """A name/kind/description table of every registered workload."""
        self._ensure_builtins()
        rows: List[Tuple[str, str, str]] = []
        for name in sorted(self._factories):
            kind = self._kinds.get(name)
            if kind is None:
                kind = getattr(self.create(name), "kind", "?")
            rows.append((name, kind, self._descriptions.get(name, "")))
        name_width = max(len(r[0]) for r in rows)
        kind_width = max(len(r[1]) for r in rows)
        lines = [f"{'Name'.ljust(name_width)}  {'Kind'.ljust(kind_width)}  Description"]
        lines.append(f"{'-' * name_width}  {'-' * kind_width}  {'-' * 11}")
        for name, kind, description in rows:
            lines.append(f"{name.ljust(name_width)}  {kind.ljust(kind_width)}  "
                         f"{description}")
        return "\n".join(lines)


def _require_positive(name: str, parameter: str, value: int) -> int:
    """Validate a factory size parameter up front, with the valid range.

    Catches bad ``--scale``/``-n`` values at workload construction instead
    of deep inside trace generation or kernel compilation.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(
            f"workload {name!r}: parameter {parameter!r} must be a positive "
            f"integer >= 1 (got {value!r})"
        )
    return value


def micro_calltree_workload(scale: int = 1) -> SyntheticWorkload:
    """A three-function call tree, small enough for sub-second smoke runs."""
    workload = SyntheticWorkload(name="micro-calltree", entry="main")
    leaf_mix = InstructionMix(int_alu=0.5, loads=0.3, stores=0.05, branches=0.15,
                              working_set_bytes=4 * 1024, locality=0.9)
    workload.add(SyntheticFunction("hot_leaf", 900 * scale, leaf_mix))
    workload.add(SyntheticFunction("helper", 300 * scale, InstructionMix(),
                                   callees=[("hot_leaf", 2)]))
    workload.add(SyntheticFunction("main", 150 * scale, InstructionMix(),
                                   callees=[("helper", 2)]))
    return workload


def _register_builtins(reg: WorkloadRegistry) -> None:
    # Imported here, not at module level: repro.api.workload itself imports
    # the workload leaf modules, so a top-level import would be circular when
    # ``repro.api`` is imported first.
    from repro.api.workload import CompiledKernelWorkload, SyntheticTraceWorkload

    def add_synthetic(name: str, tree_factory: Callable[..., SyntheticWorkload],
                      description: str) -> None:
        def factory(scale: int = 1):
            _require_positive(name, "scale", scale)
            return SyntheticTraceWorkload(tree=tree_factory(scale=scale),
                                          description=description)
        reg.register(name, factory, description, SyntheticTraceWorkload.kind)

    def add_kernel(name: str, source: str, function: str, args_builder_factory,
                   default_n: int, description: str) -> None:
        def factory(n: int = default_n):
            _require_positive(name, "n", n)
            return CompiledKernelWorkload(
                name=name, source=source, function=function,
                args_builder=args_builder_factory(n),
                filename=f"{function}.c", description=description,
            )
        reg.register(name, factory, description, CompiledKernelWorkload.kind)

    def add_parallel(name: str, class_name: str, parameter: str, kind: str,
                     description: str) -> None:
        def factory(**params):
            # The parallel workloads (and the static race analysis their
            # shard plans use) load when one is first created.
            from repro.workloads import parallel
            workload_factory = getattr(parallel, class_name)
            value = params.get(parameter)
            if value is not None:
                _require_positive(name, parameter, value)
                return workload_factory(**{parameter: value})
            return workload_factory()
        # Give the factory an inspectable signature for registry.params().
        factory.__signature__ = inspect.Signature([
            inspect.Parameter(parameter, inspect.Parameter.KEYWORD_ONLY,
                              default=None)
        ])
        reg.register(name, factory, description, kind)

    add_synthetic("sqlite3-like", sqlite3_like_workload,
                  "sqlite3-shaped call tree (Table 2 / Figure 3 hotspots)")
    add_synthetic("micro-calltree", micro_calltree_workload,
                  "tiny 3-function call tree for smoke tests")
    add_kernel("matmul-tiled", MATMUL_TILED_SOURCE, "matmul_tiled",
               matmul_args_builder, 32,
               "the paper's tiled matmul kernel (Section 5.2 / Figure 4)")
    add_kernel("matmul-naive", MATMUL_NAIVE_SOURCE, "matmul_naive",
               matmul_args_builder, 32, "untiled matmul baseline")
    add_kernel("dot-product", DOT_PRODUCT_SOURCE, "dot", dot_args_builder,
               4096, "single-loop dot product")
    add_kernel("stream-triad", STREAM_TRIAD_SOURCE, "triad", triad_args_builder,
               4096, "STREAM triad (bandwidth-bound)")
    add_kernel("stencil3", STENCIL_SOURCE, "stencil3", stencil_args_builder,
               4096, "3-point stencil")
    add_kernel("memset", MEMSET_SOURCE, "fill", memset_args_builder,
               8192, "store-only fill loop")
    add_parallel("matmul-parallel", "MatmulParallelWorkload", "n",
                 "parallel-kernel",
                 "row-sharded parallel matmul (strong scaling, --cpus N)")
    add_parallel("stream-triad-mt", "StreamTriadMtWorkload", "n",
                 "parallel-kernel",
                 "multi-threaded STREAM triad (weak scaling, LLC contention)")
    add_parallel("forkjoin-calltree", "ForkJoinCalltreeWorkload", "scale",
                 "parallel-synthetic",
                 "fork-join call-tree replay, 2 worker threads per hart")


#: The process-wide default registry the session API and CLI consult.
registry = WorkloadRegistry()
