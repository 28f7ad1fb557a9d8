"""A sqlite3-shaped synthetic workload (for Table 2 / Figure 3).

The paper profiles the sqlite3 benchmark from the LLVM test suite; its top
hotspots on both platforms are ``sqlite3VdbeExec`` (the bytecode interpreter,
~18-20% of time), ``patternCompare`` (LIKE/GLOB matching, ~12-19%) and
``sqlite3BtreeParseCellPtr`` (b-tree cell decoding, ~6-10%), with a long tail
of b-tree, pager and parser functions below them.

This module builds a synthetic call tree with the same function names,
similar relative weights, and instruction mixes chosen to match each
function's character (interpreter dispatch is branchy and load-heavy; pattern
matching is byte loads plus compares; cell parsing is loads plus shifts).
Weights are calibrated so the *sample-share ordering and rough magnitudes* of
Table 2 are reproduced; exact percentages depend on the timing model.
"""

from __future__ import annotations


from repro.workloads.synthetic import InstructionMix, SyntheticFunction, SyntheticWorkload

#: The functions the paper's Table 2 reports, in order.
SQLITE3_HOT_FUNCTIONS = (
    "sqlite3VdbeExec",
    "patternCompare",
    "sqlite3BtreeParseCellPtr",
)

#: Instruction-count ratio between the x86 and RISC-V builds of sqlite3 in
#: the paper (Table 2: ~6.7e9 vs ~3.6e9 instructions for sqlite3VdbeExec).
X86_INSTRUCTION_FACTOR = 1.85


def sqlite3_like_workload(scale: int = 1) -> SyntheticWorkload:
    """Build the workload; ``scale`` multiplies every function's work."""
    workload = SyntheticWorkload(name="sqlite3-bench", entry="main")

    def add(name: str, ops: int, mix: InstructionMix, callees=None) -> None:
        workload.add(SyntheticFunction(
            name=name,
            ops_per_call=ops * scale,
            mix=mix,
            callees=list(callees or []),
        ))

    interpreter_mix = InstructionMix(
        int_alu=0.40, int_mul=0.01, loads=0.28, stores=0.08, branches=0.23,
        working_set_bytes=24 * 1024, locality=0.88,
        branch_taken_fraction=0.55, branch_predictability=0.96,
    )
    pattern_mix = InstructionMix(
        int_alu=0.38, loads=0.34, stores=0.02, branches=0.26,
        working_set_bytes=8 * 1024, locality=0.95,
        branch_taken_fraction=0.5, branch_predictability=0.97,
    )
    btree_mix = InstructionMix(
        int_alu=0.45, loads=0.35, stores=0.05, branches=0.15,
        working_set_bytes=24 * 1024, locality=0.85,
        branch_predictability=0.96,
    )
    pager_mix = InstructionMix(
        int_alu=0.35, loads=0.30, stores=0.18, branches=0.17,
        working_set_bytes=48 * 1024, locality=0.8,
        branch_predictability=0.95,
    )
    parser_mix = InstructionMix(
        int_alu=0.5, loads=0.25, stores=0.08, branches=0.17,
        working_set_bytes=24 * 1024, locality=0.85,
        branch_predictability=0.94,
    )
    glue_mix = InstructionMix(
        int_alu=0.5, loads=0.22, stores=0.12, branches=0.16,
        working_set_bytes=32 * 1024, locality=0.8,
        branch_predictability=0.94,
    )

    # Leaf and mid-level functions (weights chosen to land near Table 2).
    add("patternCompare", 5200, pattern_mix)
    add("sqlite3BtreeParseCellPtr", 4600, btree_mix)
    add("sqlite3VdbeSerialGet", 1500, btree_mix)
    add("sqlite3VdbeMemGrow", 900, pager_mix)
    add("sqlite3PcacheFetch", 1100, pager_mix)
    add("sqlite3BtreeMovetoUnpacked", 1700, btree_mix,
        callees=[("sqlite3BtreeParseCellPtr", 1)])
    add("balance_nonroot", 1300, pager_mix)
    add("sqlite3GetToken", 1200, parser_mix)
    add("sqlite3RunParser", 1500, parser_mix, callees=[("sqlite3GetToken", 2)])
    add("likeFunc", 700, glue_mix, callees=[("patternCompare", 3)])

    # The VDBE interpreter: the biggest self-time plus calls into helpers.
    add("sqlite3VdbeExec", 8200, interpreter_mix, callees=[
        ("likeFunc", 1),
        ("sqlite3BtreeMovetoUnpacked", 1),
        ("sqlite3VdbeSerialGet", 2),
        ("sqlite3PcacheFetch", 1),
        ("sqlite3VdbeMemGrow", 1),
        ("sqlite3BtreeParseCellPtr", 1),
    ])

    add("sqlite3_step", 600, glue_mix, callees=[("sqlite3VdbeExec", 1)])
    add("sqlite3_exec", 500, glue_mix, callees=[
        ("sqlite3RunParser", 1),
        ("sqlite3_step", 3),
    ])
    add("speedtest_run", 400, glue_mix, callees=[
        ("sqlite3_exec", 2),
        ("balance_nonroot", 1),
    ])
    add("main", 200, glue_mix, callees=[("speedtest_run", 1)])

    return workload


def instruction_factor_for(arch: str) -> float:
    """Per-ISA instruction scaling (x86 executes more instructions for sqlite)."""
    return X86_INSTRUCTION_FACTOR if arch == "x86_64" else 1.0
