"""The determinism linter: every rule, the suppression grammar, and the
repo-wide cleanliness gate CI runs (``repro lint`` over ``src/repro``)."""

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

SRC_REPRO = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


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
