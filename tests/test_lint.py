"""The determinism linter: every rule, the suppression grammar, and the
repo-wide cleanliness gate CI runs (``repro lint`` over ``src/repro``).
Plus the dead-definition gate: every module- or class-level definition in
``src/`` is referenced somewhere in the repo's Python, or allowlisted."""

import ast
import fnmatch
import os
import re
import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    iter_python_files,
    lint_paths,
    lint_source,
)

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_REPRO = os.path.join(REPO, "src", "repro")


def _rules(source: str):
    return [v.rule for v in lint_source(textwrap.dedent(source))]


# -- each rule fires -------------------------------------------------------------------


def test_no_hash_fires_on_builtin_hash():
    assert _rules("key = hash((a, b))\n") == ["no-hash"]


def test_no_id_fires_on_builtin_id():
    assert _rules("key = id(node)\n") == ["no-id"]


def test_unordered_iter_fires_on_set_literal_comprehension_and_call():
    assert _rules("for x in {1, 2}:\n    pass\n") == ["unordered-iter"]
    assert _rules("out = [x for x in set(items)]\n") == ["unordered-iter"]
    assert _rules("out = {x: 1 for x in {y for y in items}}\n") == [
        "unordered-iter"]


def test_unordered_iter_quiet_when_sorted():
    assert _rules("for x in sorted({1, 2}):\n    pass\n") == []


def test_wall_clock_fires_through_import_aliases():
    assert _rules(
        "from time import perf_counter\nt0 = perf_counter()\n"
    ) == ["wall-clock"]
    assert _rules("import time as t\nnow = t.time()\n") == ["wall-clock"]
    assert _rules(
        "import datetime\nstamp = datetime.datetime.now()\n"
    ) == ["wall-clock"]


def test_unseeded_random_fires_on_module_functions_and_bare_random():
    assert _rules(
        "import random\nx = random.random()\n"
    ) == ["unseeded-random"]
    assert _rules(
        "from random import Random\nrng = Random()\n"
    ) == ["unseeded-random"]


def test_seeded_random_is_fine():
    assert _rules("from random import Random\nrng = Random(42)\n") == []


def test_shadowed_names_do_not_fire():
    # A local `hash`/`id` import or the user's own function is not the builtin.
    assert _rules(
        "from hashlib import sha256 as hash\ndigest = hash(b'x')\n"
    ) == []


# -- suppression grammar ---------------------------------------------------------------


def test_suppression_with_reason_silences_the_rule():
    assert _rules(
        "key = id(node)  # repro-lint: allow[no-id] -- per-process cache key\n"
    ) == []


def test_suppression_without_reason_is_itself_reported():
    assert _rules(
        "key = id(node)  # repro-lint: allow[no-id]\n"
    ) == ["lint-suppression"]


def test_suppression_for_a_different_rule_does_not_silence():
    assert _rules(
        "key = id(node)  # repro-lint: allow[no-hash] -- wrong rule\n"
    ) == ["no-id"]


def test_unknown_rule_in_allow_is_reported():
    rules = _rules(
        "x = 1  # repro-lint: allow[no-determinism] -- typo'd rule name\n"
    )
    assert rules == ["lint-suppression"]


def test_violation_format_and_dict_name_the_site():
    violations = lint_source("key = hash(x)\n", path="pkg/mod.py")
    assert len(violations) == 1
    v = violations[0]
    assert v.format().startswith("pkg/mod.py:1:7: no-hash:")
    assert v.to_dict()["rule"] == "no-hash"
    assert v.rule in RULES


def test_syntax_error_reports_instead_of_crashing():
    violations = lint_source("def broken(:\n", path="bad.py")
    assert violations and violations[0].rule == "lint-suppression"


# -- file walking + the repo gate ------------------------------------------------------


def test_iter_python_files_is_sorted_and_recursive(tmp_path):
    (tmp_path / "sub").mkdir()
    for name in ("b.py", "a.py", "sub/c.py", "sub/skip.txt"):
        (tmp_path / name).write_text("x = 1\n")
    found = list(iter_python_files([str(tmp_path)]))
    assert [os.path.relpath(p, tmp_path) for p in found] == [
        "a.py", "b.py", os.path.join("sub", "c.py")]


def test_fixture_with_hash_violation_fails_lint(tmp_path):
    bad = tmp_path / "nondeterministic.py"
    bad.write_text(textwrap.dedent("""\
        import random

        def sample(items):
            bucket = hash(tuple(items)) % 8
            return bucket, random.random()
    """))
    violations = lint_paths([str(tmp_path)])
    assert sorted(v.rule for v in violations) == ["no-hash", "unseeded-random"]


def test_repo_source_tree_lints_clean():
    """The gate CI enforces: zero violations over the repo's own package.
    Every deliberate hash()/id()/wall-clock site must carry a justified
    inline suppression."""
    violations = lint_paths([SRC_REPRO])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_wall_clock_reads_funnel_through_one_site():
    """With every suppression stripped, ``wall-clock`` fires only in
    ``telemetry/spans.py``: the rest of the tree reads host time through
    ``repro.telemetry.clock``."""
    suppression = re.compile(r"\s*#\s*repro-lint:.*$", re.MULTILINE)
    sites = set()
    for path in iter_python_files([SRC_REPRO]):
        with open(path, encoding="utf-8") as handle:
            source = suppression.sub("", handle.read())
        if any(v.rule == "wall-clock" for v in lint_source(source, path)):
            sites.add(os.path.relpath(path, SRC_REPRO).replace(os.sep, "/"))
    assert sites == {"telemetry/spans.py"}


def test_cli_lint_exits_nonzero_on_violations(tmp_path, capsys):
    from repro.toolchain.cli import main as cli_main

    bad = tmp_path / "bad.py"
    bad.write_text("key = hash(x)\n")
    code = cli_main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "no-hash" in out

    good = tmp_path / "good.py"
    good.write_text("key = (x, y)\n")
    assert cli_main(["lint", str(good)]) == 0


# -- dead definitions ------------------------------------------------------------------

#: Where a ``src/`` definition may be referenced from.
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples")

#: Definitions kept although no Python in the repo names them: hooks that
#: ``ast.NodeVisitor`` dispatches by name, documented builder API, and
#: values of the SBI / privileged-spec tables, kept whole as the spec
#: lists them.
UNREFERENCED_ALLOWED = (
    "*.visit_*",
    "ProfileSpec.with_*",
    "parse_module",
    "SbiError.*",
    "CSR_TIME",
    "CFG_FLAG_SKIP_MATCH",
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _referenced_names(roots):
    """Every name the Python under *roots* uses: loads, attributes, keyword
    arguments, imports, and string constants spelling an identifier or a
    dotted path (``getattr`` targets, ``__all__``, entry points) -- but not
    docstrings or definitions themselves."""
    names = set()
    for path in iter_python_files([root for root in roots
                                   if os.path.isdir(root)]):
        tree = _parse(path)
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value,
                                                              ast.Constant):
                    docstrings.add(first.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(_IDENTIFIER.findall(node.name))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node not in docstrings and _DOTTED.fullmatch(node.value)):
                names.update(_IDENTIFIER.findall(node.value))
    return names


def _defined_names(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id, node


def _definitions(src_root):
    """``(site, qualified name)`` of every module-level definition and every
    definition in a module-level class body under *src_root*, dunders
    excluded."""
    out = []
    for path in iter_python_files([src_root]):
        site = os.path.relpath(path, src_root).replace(os.sep, "/")
        for name, node in _defined_names(_parse(path).body):
            out.append((f"{site}:{node.lineno}", name))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{site}:{member.lineno}", f"{name}.{attr}")
                           for attr, member in _defined_names(node.body))
    return [(site, qualified) for site, qualified in out
            if not qualified.rsplit(".", 1)[-1].startswith("__")]


def _unreferenced(repo, allowed=()):
    names = _referenced_names([os.path.join(repo, root)
                               for root in REFERENCE_ROOTS])
    return [f"{site}: {qualified}"
            for site, qualified in _definitions(os.path.join(repo, "src"))
            if qualified.rsplit(".", 1)[-1] not in names
            and not any(fnmatch.fnmatchcase(qualified, pattern)
                        for pattern in allowed)]


def test_dead_definition_scan_flags_only_unreferenced(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(textwrap.dedent("""\
        \"\"\"Mentions orphan() in a docstring only.\"\"\"
        LIMIT = 4
        UNUSED_LIMIT = 5

        def helper():
            return LIMIT

        def orphan():
            return helper()

        class Box:
            size: int = 0

            def __init__(self):
                self.size = 1

            def used(self):
                return getattr(self, "named_by_string")()

            def named_by_string(self):
                return self.size

            def never_called(self):
                pass
    """))
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Box\nBox().used()\n")
    assert [entry.split(": ")[1] for entry in _unreferenced(str(tmp_path))] \
        == ["UNUSED_LIMIT", "orphan", "Box.never_called"]
    assert [entry.split(": ")[1] for entry in _unreferenced(
        str(tmp_path), allowed=("orphan", "Box.never_*"))] == ["UNUSED_LIMIT"]


def test_every_src_definition_is_referenced():
    """Dead ``src/`` surface fails here: delete it, or add it to
    ``UNREFERENCED_ALLOWED`` with the reason it stays."""
    dead = _unreferenced(REPO, UNREFERENCED_ALLOWED)
    assert dead == [], "\n".join(dead)


def test_unreferenced_allowlist_has_no_stale_entries():
    qualified = [name for _, name in _definitions(os.path.join(REPO, "src"))]
    stale = [pattern for pattern in UNREFERENCED_ALLOWED
             if not fnmatch.filter(qualified, pattern)]
    assert stale == []


# -- unused imports --------------------------------------------------------------------


def _unused_imports(src_root):
    """``site: name`` of every name a non-``__init__`` module under
    *src_root* imports but never loads.  ``from __future__`` imports are
    exempt, and so are names the module lists in ``__all__`` (an explicit
    re-export); package ``__init__`` modules import to re-export."""
    out = []
    for path in iter_python_files([src_root]):
        if os.path.basename(path) == "__init__.py":
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                used.update(element.value for element in node.value.elts)
        site = os.path.relpath(path, src_root).replace(os.sep, "/")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.append(f"{site}:{node.lineno}: {bound}")
    return out


def test_unused_import_scan_flags_only_unloaded_names(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from pkg.mod import Box\n")
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent("""\
        from __future__ import annotations
        import os.path
        import json as codec
        from typing import Dict, List
        from collections import deque, OrderedDict
        __all__ = ["OrderedDict", "Box"]

        class Box:
            items: Dict[str, int]

            def load(self) -> str:
                return os.path.join("a", "b")
    """))
    assert _unused_imports(str(tmp_path)) == [
        "pkg/mod.py:3: codec", "pkg/mod.py:4: List", "pkg/mod.py:5: deque"]


def test_src_modules_have_no_unused_imports():
    unused = _unused_imports(SRC_REPRO)
    assert unused == [], "\n".join(unused)
