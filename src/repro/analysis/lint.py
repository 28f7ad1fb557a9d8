"""A determinism linter for the repo's own source (stdlib ``ast`` only).

Every number this repo produces is supposed to be bit-reproducible across
processes, platforms and Python versions; the rules here encode the ways
that property has actually been lost (or nearly lost) before:

* ``no-hash`` / ``no-id`` -- ``hash()`` is salted per process (PEP 456) and
  ``id()`` is an object address; either one feeding an output, a sample, a
  cache key or an ordering silently breaks cross-process determinism.
* ``unordered-iter`` -- iterating a ``set`` (literal, comprehension or
  ``set()`` call) without ``sorted()`` yields a process-dependent order.
* ``wall-clock`` -- ``time.time()``/``perf_counter()``/``datetime.now()``
  inside the modelled machine would make cycle counts timing-dependent.
* ``unseeded-random`` -- module-level ``random.*`` functions (or an
  argument-less ``random.Random()``) draw from ambient interpreter state;
  simulation code must thread an explicitly seeded ``random.Random(seed)``.

Suppression is inline, per line, and must carry a justification::

    t0 = perf_counter()  # repro-lint: allow[wall-clock] -- diagnostic only

A suppression without the ``-- reason`` trailer is itself reported
(``lint-suppression``), so allowlisting stays auditable.  Unknown rule
names in an ``allow[...]`` are reported too -- a typo would otherwise
silently suppress nothing while looking intentional.

The linter is purely syntactic and intentionally dumb: it flags *sites*,
not data flow.  The sites where the pattern is deliberate (an identity-keyed
per-process cache that never escapes, the one wall-clock read in
``repro.telemetry.clock``) carry suppressions with their justification,
which doubles as documentation of why the use is safe.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: Every rule the linter can emit.
RULES = (
    "no-hash",
    "no-id",
    "unordered-iter",
    "wall-clock",
    "unseeded-random",
    "lint-suppression",
)

#: Dotted call targets that read ambient wall-clock state.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Module-level ``random`` functions that draw from the ambient generator.
UNSEEDED_RANDOM_CALLS = frozenset({
    "random.random", "random.randrange", "random.randint",
    "random.choice", "random.choices", "random.shuffle",
    "random.uniform", "random.sample", "random.gauss",
    "random.betavariate", "random.expovariate", "random.triangular",
})

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[([^\]]*)\]\s*(--\s*(\S.*))?"
)


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and a human-readable message."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "column": self.column,
                "rule": self.rule, "message": self.message}


@dataclass(frozen=True)
class _Suppression:
    rules: frozenset
    has_reason: bool
    raw_rules: tuple


def _parse_suppressions(source: str) -> Dict[int, _Suppression]:
    """Line number -> the suppression declared on that physical line."""
    out: Dict[int, _Suppression] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        raw = tuple(part.strip() for part in match.group(1).split(",")
                    if part.strip())
        out[number] = _Suppression(
            rules=frozenset(raw),
            has_reason=match.group(3) is not None,
            raw_rules=raw,
        )
    return out


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.violations: List[Violation] = []
        #: local alias -> canonical dotted name ("t" -> "time",
        #: "perf_counter" -> "time.perf_counter").
        self.aliases: Dict[str, str] = {}

    # -- helpers ------------------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.path, line=node.lineno, column=node.col_offset + 1,
            rule=rule, message=message,
        ))

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """The canonical dotted name a call target resolves to, if any."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    # -- imports ------------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- calls --------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash" and func.id not in self.aliases:
                self._report(node, "no-hash",
                             "hash() is salted per process; its value must "
                             "not feed simulation state or rendered output")
            elif func.id == "id" and func.id not in self.aliases:
                self._report(node, "no-id",
                             "id() is an object address, different on every "
                             "run; do not let it feed simulation state or "
                             "rendered output")
        dotted = self._dotted(func)
        if dotted is not None:
            if dotted in WALL_CLOCK_CALLS:
                self._report(node, "wall-clock",
                             f"{dotted}() reads the wall clock; modelled "
                             "time must come from the machine, not the host")
            elif dotted in UNSEEDED_RANDOM_CALLS:
                self._report(node, "unseeded-random",
                             f"{dotted}() draws from the ambient generator; "
                             "use an explicitly seeded random.Random(seed)")
            elif dotted == "random.Random" and not node.args and not node.keywords:
                self._report(node, "unseeded-random",
                             "random.Random() without a seed draws from "
                             "ambient entropy; pass an explicit seed")
        self.generic_visit(node)

    # -- set iteration ------------------------------------------------------------

    def _check_iterable(self, node: ast.expr) -> None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            self._report(node, "unordered-iter",
                         "iterating a set yields a process-dependent order; "
                         "wrap it in sorted(...)")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset") \
                and node.func.id not in self.aliases:
            self._report(node, "unordered-iter",
                         f"iterating a {node.func.id}() yields a process-"
                         "dependent order; wrap it in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one Python source text; returns surviving violations."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Violation(path=path, line=error.lineno or 1,
                          column=(error.offset or 1), rule="lint-suppression",
                          message=f"could not parse: {error.msg}")]
    linter = _Linter(path)
    linter.visit(tree)
    suppressions = _parse_suppressions(source)
    survivors: List[Violation] = []
    for violation in linter.violations:
        suppression = suppressions.get(violation.line)
        if suppression is not None and violation.rule in suppression.rules:
            if not suppression.has_reason:
                survivors.append(Violation(
                    path=path, line=violation.line, column=violation.column,
                    rule="lint-suppression",
                    message=("suppression is missing its justification "
                             "(expected '-- reason' after allow[...])"),
                ))
            continue
        survivors.append(violation)
    for line, suppression in sorted(suppressions.items()):
        unknown = [rule for rule in suppression.raw_rules if rule not in RULES]
        if unknown:
            survivors.append(Violation(
                path=path, line=line, column=1, rule="lint-suppression",
                message=f"unknown rule(s) in allow[...]: {', '.join(unknown)}",
            ))
    survivors.sort(key=lambda v: (v.line, v.column, v.rule))
    return survivors


def lint_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def default_lint_root() -> str:
    """The repo's own package directory (what bare ``repro lint`` checks)."""
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations
