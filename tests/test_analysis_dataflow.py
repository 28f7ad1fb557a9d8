"""The dataflow framework and the address-range analysis it carries.

Three layers:

* the solver and its two executable-documentation clients (liveness,
  reaching definitions) on real compiled kernels;
* interval exactness -- the address-range analysis must bound the STREAM
  triad and the row-sharded matmul shard to their *exact* byte regions
  (off-by-one-row bounds would make the race detector either unsound or
  uselessly conservative);
* the widening policy -- nested loops keep loop-invariant outer bounds
  (the selective-widening property that makes matmul rows exact).
"""

import pytest

from repro.analysis.dataflow import (
    live_in,
    max_live_values,
    pointer_root,
    reaching_definitions,
    solve,
)
from repro.analysis.ranges import analyze_address_ranges
from repro.compiler.cache import compile_source_cached
from repro.compiler.ir.instructions import Alloca, Store
from repro.platforms import spacemit_x60
from repro.vm import Memory
from repro.workloads.kernels import STREAM_TRIAD_SOURCE
from repro.workloads.parallel import MATMUL_ROWS_SOURCE


def _compile(source: str, name: str):
    return compile_source_cached(source, name, spacemit_x60(),
                                 enable_vectorizer=False)


def _triad():
    return _compile(STREAM_TRIAD_SOURCE, "triad.c").get_function("triad")


def _matmul_rows():
    return _compile(MATMUL_ROWS_SOURCE, "matmul_rows.c").get_function(
        "matmul_rows")


# -- solver + classic clients ----------------------------------------------------------


def test_solver_rejects_unknown_direction():
    from repro.analysis.dataflow import DataflowAnalysis

    class Sideways(DataflowAnalysis):
        direction = "sideways"

    with pytest.raises(ValueError, match="sideways"):
        solve(_triad(), Sideways())


def test_liveness_loop_carried_values_live_at_loop_head():
    function = _triad()
    sets = live_in(function)
    heads = [block for block in function.blocks if "cond" in block.name]
    assert heads, "triad lost its loop header block"
    # The induction slot (or its promoted SSA value) must be live at the head.
    assert any(sets[head] for head in heads)
    assert max_live_values(function) >= 1


def test_reaching_definitions_entry_empty_and_loop_accumulates():
    function = _matmul_rows()
    reaching = reaching_definitions(function)
    assert reaching[function.entry_block] == frozenset()
    # Deep inside the loop nest every pointer argument's stores reach.
    innermost = max(reaching.values(), key=len)
    roots = {pointer_root(store.pointer) for store in innermost}
    assert len(roots) >= 2
    assert all(isinstance(store, Store) for store in innermost)


def test_pointer_root_walks_geps_to_arguments_and_allocas():
    function = _triad()
    roots = set()
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, Store):
                root = pointer_root(inst.pointer)
                if root is not None:
                    roots.add(type(root).__name__)
    assert "Alloca" in roots  # the frontend's parameter slots
    # Pointer values loaded back out of slots root at the slot itself;
    # resolving them to the argument is the range analysis' job.
    assert all(name in ("Alloca", "Argument") for name in roots)


# -- interval exactness ----------------------------------------------------------------


def test_triad_regions_are_exact():
    n = 4096
    memory = Memory()
    a = memory.alloc_float_array([0.0] * n)
    b = memory.alloc_float_array([1.0] * n)
    c = memory.alloc_float_array([2.0] * n)
    result = analyze_address_ranges(_triad(), (a, b, c, 3.0, n))
    regions = {r.name: r for r in result.sorted_regions() if not r.is_private}
    assert sorted(regions) == ["a", "b", "c"]
    assert regions["a"].absolute() == (a, a + 4 * n)
    assert regions["b"].absolute() == (b, b + 4 * n)
    assert regions["c"].absolute() == (c, c + 4 * n)
    assert regions["a"].writes and not regions["a"].reads
    assert regions["b"].reads and not regions["b"].writes
    assert all(r.stride == 4 for r in regions.values())
    assert result.fully_bounded


def test_matmul_rows_shard_bounds_are_exact_per_row_slice():
    """The shard touching rows [lo, hi) must be bounded to exactly those
    rows of A and C -- the property the race detector's disjointness proof
    rests on -- while B stays fully shared."""
    n, lo, hi = 8, 2, 5
    memory = Memory()
    a = memory.alloc_float_array([0.0] * n * n)
    b = memory.alloc_float_array([0.0] * n * n)
    c = memory.alloc_float_array([0.0] * n * n)
    result = analyze_address_ranges(_matmul_rows(), (a, b, c, n, lo, hi))
    regions = {r.name: r for r in result.sorted_regions() if not r.is_private}
    assert regions["A"].absolute() == (a + 4 * lo * n, a + 4 * hi * n)
    assert regions["B"].absolute() == (b, b + 4 * n * n)
    assert regions["C"].absolute() == (c + 4 * lo * n, c + 4 * hi * n)
    assert regions["C"].writes and not regions["C"].reads
    assert result.fully_bounded


def test_unbounded_without_concrete_arguments():
    """With no argument values the trip counts are unknown: the analysis
    must degrade to unbounded honestly rather than invent bounds."""
    result = analyze_address_ranges(_triad(), None)
    assert not result.fully_bounded
    assert result.unresolved


def test_quadratic_subscript_bounded_by_interval_arithmetic():
    source = """
    void scatter(float* a, long n) {
      for (long i = 0; i < n; i++) {
        a[i * i] = 1.0f;
      }
    }
    """
    function = _compile(source, "scatter.c").get_function("scatter")
    memory = Memory()
    a = memory.alloc_float_array([0.0] * 64)
    result = analyze_address_ranges(function, (a, 8))
    region = next(r for r in result.sorted_regions() if r.name == "a")
    # i in [0, 7] so i*i in [0, 49]: last store covers bytes [196, 200).
    assert region.absolute() == (a, a + 200)


def test_data_dependent_subscript_reports_unbounded_not_wrong():
    """An index loaded from memory has no static bound: the analysis must
    degrade to unbounded honestly rather than invent one."""
    source = """
    void gather(float* a, long* idx, long n) {
      for (long i = 0; i < n; i++) {
        a[idx[i]] = 1.0f;
      }
    }
    """
    function = _compile(source, "gather.c").get_function("gather")
    memory = Memory()
    a = memory.alloc_float_array([0.0] * 64)
    idx = memory.alloc_float_array([0.0] * 8)
    result = analyze_address_ranges(function, (a, idx, 8))
    region = next(r for r in result.sorted_regions() if r.name == "a")
    assert not region.bounded
    assert result.unresolved


# -- widening policy -------------------------------------------------------------------


def test_nested_loops_keep_outer_induction_bounds():
    """Selective widening: the inner loop head must not widen the outer
    induction variable it never stores (the matmul-exactness property,
    reduced to the minimal nest)."""
    source = """
    void nest(float* a, long n) {
      for (long i = 0; i < n; i++) {
        for (long j = 0; j < n; j++) {
          a[i * n + j] = 0.0f;
        }
      }
    }
    """
    function = _compile(source, "nest.c").get_function("nest")
    memory = Memory()
    n = 6
    a = memory.alloc_float_array([0.0] * n * n)
    result = analyze_address_ranges(function, (a, n))
    region = next(r for r in result.sorted_regions() if r.name == "a")
    assert region.absolute() == (a, a + 4 * n * n)
    assert result.fully_bounded


def test_alloca_rooted_regions_are_private():
    """Alloca roots classify as private (per-thread stack), argument roots
    as shared -- the distinction the race detector filters on."""
    from repro.compiler.ir.types import FloatType
    from repro.compiler.ir.values import Argument
    from repro.analysis.ranges import Region

    alloca = Alloca(FloatType(32), name="slot")
    argument = Argument(FloatType(32), "a", 0)
    assert Region(name="slot", root=alloca).is_private
    assert not Region(name="a", root=argument).is_private
