"""Cold start: what a process imports is what it runs.

A synthetic-trace record -- the paper's sqlite3 ``miniperf record`` -- and
the CLI's listing subcommands must not import the compiler, the VM, the
roofline runner, the process-pool executor, the static analyzers, the SMP
model or the service, and a kernel run whose module comes from the disk
cache must not import the passes only a compile runs.  The import checks
run in a fresh interpreter, so modules the test process has already
loaded cannot hide an import edge.
The lazy package namespaces must still resolve every name they export.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")

#: Modules (and packages: their submodules count too) a synthetic-trace
#: process must not load.
HEAVY = (
    "repro.compiler.frontend",
    "repro.compiler.transforms",
    "repro.compiler.ir.module",
    "repro.vm.engine",
    "repro.roofline.runner",
    "repro.roofline.microbench",
    "repro.api.executor",
    "repro.analysis",
    "repro.smp",
    "repro.service",
    "multiprocessing",
)

#: The package namespaces that export names lazily (PEP 562).
LAZY_PACKAGES = ("repro", "repro.api", "repro.compiler",
                 "repro.compiler.transforms", "repro.roofline")

#: Names perfbench's layer profiler wraps in their modules; the code must
#: keep calling them through these module attributes.
PATCHED = (
    ("repro.api.workload", "compile_source_cached"),
    ("repro.workloads.parallel", "compile_source_cached"),
    ("repro.roofline.runner", "compile_source"),
    ("repro.api.session", "build_flame_graph"),
    ("repro.smp", "smp_stat"),
    ("repro.smp", "smp_record"),
)


def run_script(script: str, tmp_path) -> dict:
    """Run *script* in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def heavy_loaded(modules) -> list:
    return sorted(name for name in modules
                  if any(name == heavy or name.startswith(heavy + ".")
                         for heavy in HEAVY))


def test_sqlite_record_loads_no_compiler_vm_or_roofline(tmp_path):
    """The benchmark's set-up plus one sqlite3-like record run."""
    modules = run_script(f"""
        import json, sys
        sys.path[:0] = [{SRC!r}, {PERFBENCH!r}]
        import worker
        from workloads import PLATFORM, WORKLOADS

        worker.import_repro()
        workload, spec, _ = worker.setup(WORKLOADS["sqlite-record-x60"], 42)
        before = sorted(sys.modules)
        from repro.api import Session
        run = Session(PLATFORM).run(workload, spec)
        assert not run.errors, run.errors
        assert run.hotspots is not None
        print(json.dumps({{"before": before, "after": sorted(sys.modules)}}))
        """, tmp_path)
    assert heavy_loaded(modules["after"]) == []
    # The saving is work removed, not work moved into the first iteration.
    assert sorted(set(modules["after"]) - set(modules["before"])) == []


@pytest.mark.parametrize("argv", [
    ["platforms"],
    ["capabilities"],
    ["identify", "-p", "x60"],
    ["stat", "--workload", "sqlite3-like", "-p", "x60"],
    ["record", "--workload", "sqlite3-like", "-p", "x60", "--period", "6000"],
], ids=lambda argv: " ".join(argv[:3]))
def test_cli_subcommand_loads_no_heavy_module(tmp_path, argv):
    modules = run_script(f"""
        import contextlib, io, json, sys
        from repro.toolchain.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        assert code == 0, code
        print(json.dumps({{"after": sorted(sys.modules)}}))
        """, tmp_path)
    assert heavy_loaded(modules["after"]) == []


def test_workloads_listing_builds_no_workload(tmp_path):
    """``repro workloads`` reads each builtin's recorded kind instead of
    building it, so neither the parallel workloads nor the VM load."""
    modules = run_script("""
        import contextlib, io, json, sys
        from repro.toolchain.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["workloads"])
        assert code == 0, code
        print(json.dumps({"after": sorted(sys.modules)}))
        """, tmp_path)
    loaded = modules["after"]
    assert "repro.workloads.parallel" not in loaded
    assert not [name for name in loaded
                if name == "repro.vm" or name.startswith("repro.vm.")]
    assert heavy_loaded(loaded) == []


#: The passes only a true compile runs.
COMPILE_ONLY_PASSES = tuple(
    f"repro.compiler.transforms.{name}"
    for name in ("constfold", "dce", "simplifycfg", "extractor", "cloning",
                 "roofline_pass", "pipeline"))


def test_warm_cache_kernel_stat_loads_no_compile_pass(tmp_path):
    """A kernel ``stat`` whose module comes from the disk cache runs no
    pass, so it loads none (the engine needs only two pass modules)."""
    script = """
        import contextlib, io, json, sys
        from repro.toolchain.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["stat", "--workload", "memset", "-p", "x60"])
        assert code == 0, code
        print(json.dumps({"after": sorted(sys.modules)}))
        """
    cold = run_script(script, tmp_path)["after"]
    assert set(COMPILE_ONLY_PASSES) <= set(cold)       # it did compile
    warm = run_script(script, tmp_path)["after"]
    assert [name for name in COMPILE_ONLY_PASSES if name in warm] == []


def test_package_imports_load_no_heavy_module(tmp_path):
    """A package ``__init__`` never imports the heavy layers itself."""
    modules = run_script("""
        import json, sys
        import repro, repro.api, repro.compiler, repro.compiler.cache
        import repro.roofline, repro.workloads
        print(json.dumps({"after": sorted(sys.modules)}))
        """, tmp_path)
    assert heavy_loaded(modules["after"]) == []


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    names = dir(package)
    for name in package.__all__:
        assert name in names, name
        value = getattr(package, name)
        assert value is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


@pytest.mark.parametrize("module_name,attr", PATCHED,
                         ids=[".".join(pair) for pair in PATCHED])
def test_patched_names_stay_module_attributes(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(vars(module).get(attr)), (module_name, attr)
