"""Core timing models.

Two models are provided:

* :class:`InOrderCore` -- a dual-issue in-order pipeline in the spirit of the
  SiFive U74 and SpacemiT X60.  Dependent-operation latency, load-use delay,
  cache-miss latency and branch mispredictions are all exposed to the retire
  stream, which is what produces the low IPC the paper measures (0.86 on the
  X60 for sqlite3).
* :class:`OutOfOrderCore` -- a wide out-of-order machine in the spirit of the
  T-Head C910 and the Intel i5-1135G7 comparator.  Most latency is hidden by
  the scheduler; only a configurable exposed fraction of miss latency and the
  mispredict penalty reach the bottom line, giving the high IPC (3.4) the
  paper reports for x86.

The models are *cycle-approximate*: they accumulate fractional cycles per
retired :class:`~repro.isa.machine_ops.MachineOp` and publish integer cycle
increments on the :class:`~repro.cpu.events.EventBus` so the PMU sees a
monotonically increasing cycle count while execution is in flight (necessary
for sampling interrupts to fire mid-run, exactly as on hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.cpu.branch import GsharePredictor
from repro.cpu.cache import AccessResult, CacheHierarchy
from repro.cpu.events import UNBOUNDED, EventBus, HwEvent
from repro.isa.machine_ops import (
    FLOP_OP_CLASSES,
    MEMORY_OP_CLASSES,
    MachineOp,
    OpClass,
    VECTOR_OP_CLASSES,
)
from repro.isa.privilege import PrivilegeMode

if TYPE_CHECKING:
    from repro.kernel.task import Task
    from repro.pmu.unit import PmuUnit

#: Privilege mode -> the vendor per-mode cycle event it pulses.
_MODE_CYCLE_EVENT = {
    PrivilegeMode.USER: HwEvent.U_MODE_CYCLE,
    PrivilegeMode.SUPERVISOR: HwEvent.S_MODE_CYCLE,
    PrivilegeMode.MACHINE: HwEvent.M_MODE_CYCLE,
}


def _sync_pc(task: Task, ops: Sequence[MachineOp], index: int) -> None:
    """Set *task*'s pc to the last nonzero pc in ``ops[:index + 1]`` -- where
    per-op retirement of those ops would have left it (unchanged if none)."""
    while index >= 0:
        pc = ops[index].pc
        if pc:
            task.set_pc(pc)
            return
        index -= 1


#: Default operation latencies (cycles), roughly matching published numbers
#: for small in-order RISC-V cores.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 20,
    OpClass.FP_ADD: 4,
    OpClass.FP_MUL: 5,
    OpClass.FP_FMA: 5,
    OpClass.FP_DIV: 18,
    OpClass.FP_MISC: 2,
    OpClass.LOAD: 3,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.CALL: 1,
    OpClass.RET: 1,
    OpClass.CSR: 3,
    OpClass.ECALL: 10,
    OpClass.FENCE: 5,
    OpClass.VECTOR_ALU: 2,
    OpClass.VECTOR_FP: 4,
    OpClass.VECTOR_FMA: 4,
    OpClass.VECTOR_LOAD: 4,
    OpClass.VECTOR_STORE: 2,
    OpClass.NOP: 1,
}


@dataclass(frozen=True)
class CoreConfig:
    """Tunable parameters of a core timing model."""

    name: str
    frequency_hz: float
    issue_width: int = 2
    out_of_order: bool = False
    #: Per-opclass execution latency in cycles.
    latencies: Dict[OpClass, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    #: Fraction of (latency - 1) cycles of a non-memory op that stalls retire.
    #: In-order cores expose most of it; out-of-order cores hide most of it.
    dependency_exposure: float = 0.45
    #: Fraction of a memory access's latency (beyond the first cycle) that
    #: stalls retire.  Models load-use stalls and limited MLP for in-order
    #: cores and deep MLP for out-of-order cores.
    memory_exposure: float = 0.6
    #: Cycles lost on a branch misprediction.
    mispredict_penalty: int = 8
    #: Number of single-precision FLOPs the FP/vector datapath can retire per
    #: cycle at peak (used by the theoretical roofline roof, not the timing).
    peak_sp_flops_per_cycle: float = 16.0
    #: Single-precision lanes per vector instruction.
    vector_sp_lanes: int = 8
    #: Fixed front-end cost (cycles) added per taken control-flow transfer.
    taken_branch_bubble: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if not 0.0 <= self.dependency_exposure <= 1.0:
            raise ValueError("dependency_exposure must be in [0, 1]")
        if not 0.0 <= self.memory_exposure <= 1.0:
            raise ValueError("memory_exposure must be in [0, 1]")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")

    def latency_of(self, opclass: OpClass) -> int:
        return self.latencies.get(opclass, 1)


class BlockDelta:
    """Empty marker: nothing constructs it and no retire stream holds one.

    ``perfbench/layers.py`` still imports it to count retire-stream
    sentinels; it goes when that import does.
    """


class CoreTimingModel:
    """Common machinery shared by the in-order and out-of-order models."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        bus: EventBus,
        predictor: Optional[GsharePredictor] = None,
        pmu: Optional[PmuUnit] = None,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.bus = bus
        self.predictor = predictor or GsharePredictor()
        #: The PMU on *bus*, whose armed counters bound retire_batch's aggregates.
        self.pmu = pmu
        self.privilege_mode = PrivilegeMode.USER
        self.retired_instructions = 0
        self.total_cycles = 0
        self._cycle_remainder = 0.0
        # Batched-retirement dispatch tables, built lazily on first use (the
        # config is immutable after construction): per-opclass cost/flag
        # rows, and a mem-latency -> cost memo shared by all memory classes.
        self._batch_info: Optional[list] = None
        self._mem_cost_cache: Dict[int, Tuple[float, int, int]] = {}

    # -- to be provided by subclasses ------------------------------------------

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        """Return ``(base, frontend_stall, backend_stall)`` fractional cycles."""
        raise NotImplementedError

    # -- public API -------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Instructions per cycle retired so far."""
        return self.retired_instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def frequency_hz(self) -> float:
        return self.config.frequency_hz

    def elapsed_seconds(self) -> float:
        return self.total_cycles / self.config.frequency_hz

    def retire(self, op: MachineOp) -> None:
        """Retire one machine op: advance time, publish PMU events."""
        mem: Optional[AccessResult] = None
        mispredicted = False

        if op.is_memory and op.address is not None and op.size_bytes > 0:
            mem = self.hierarchy.access(op.address, op.size_bytes, op.is_store)
        if op.is_branch:
            mispredicted = self.predictor.update(op.pc, op.target, op.taken)

        self._retire_one(op, mem, mispredicted,
                         *self._cost_row(op, mem, mispredicted))

    def _retire_one(self, op: MachineOp, mem: Optional[AccessResult],
                    mispredicted: bool, total: float, frontend_pulse: int,
                    backend_pulse: int) -> None:
        """Advance time by one op costing *total* cycles and publish its
        events op-precisely."""
        self._cycle_remainder += total
        cycles = int(self._cycle_remainder)
        self._cycle_remainder -= cycles
        self.total_cycles += cycles
        self.retired_instructions += 1
        self._publish(op, mem, mispredicted, cycles, frontend_pulse,
                      backend_pulse)

    # -- batched retirement -----------------------------------------------------

    def _cost_row(self, op: MachineOp, mem: Optional[AccessResult] = None,
                  mispredicted: bool = False) -> Tuple[float, int, int]:
        """``(total, frontend_pulse, backend_pulse)`` for one op: its
        fractional cycles and the whole stall cycles it publishes."""
        base, frontend, backend = self._op_cost(op, mem, mispredicted)
        return (base + frontend + backend,
                int(frontend) if frontend >= 1.0 else 0,
                int(backend) if backend >= 1.0 else 0)

    def _build_batch_info(self) -> list:
        """Per-opclass dispatch rows for :meth:`retire_batch`.

        Indexed by ``OpClass.<member>.index``.  Row layouts:

        * plain ops      -- ``(0, cost_row, flop_factor, is_int, is_vector)``;
          the cost is a constant of the core config.
        * memory ops     -- ``(1, addressless_cost_row, is_load, is_store,
          is_vector)``; the addressed cost depends only on the access
          latency and is memoized in ``_mem_cost_cache``.
        * branches       -- ``(2, rows[taken][mispredicted])``.
        """
        table: list = [None] * len(OpClass)
        for opclass in OpClass:
            if opclass in MEMORY_OP_CLASSES:
                row = (1,
                       self._cost_row(MachineOp(opclass)),
                       opclass is OpClass.LOAD or opclass is OpClass.VECTOR_LOAD,
                       opclass is OpClass.STORE or opclass is OpClass.VECTOR_STORE,
                       opclass in VECTOR_OP_CLASSES)
            elif opclass is OpClass.BRANCH:
                rows = [
                    [self._cost_row(MachineOp(OpClass.BRANCH, taken=taken),
                                    None, mispredicted)
                     for mispredicted in (False, True)]
                    for taken in (False, True)
                ]
                row = (2, rows)
            else:
                if opclass in (OpClass.FP_FMA, OpClass.VECTOR_FMA):
                    flop_factor = 2
                elif opclass in FLOP_OP_CLASSES:
                    flop_factor = 1
                else:
                    flop_factor = 0
                is_int = opclass in (OpClass.INT_ALU, OpClass.INT_MUL,
                                     OpClass.INT_DIV, OpClass.VECTOR_ALU)
                row = (0, self._cost_row(MachineOp(opclass)), flop_factor,
                       is_int, opclass in VECTOR_OP_CLASSES)
            table[opclass.index] = row
        return table

    def retire_batch(self, ops: Sequence[MachineOp],
                     mem_results: Sequence[AccessResult],
                     task: Optional[Task] = None) -> int:
        """Retire a chunk of ops with coalesced event publication.

        Cache, predictor and fractional-cycle state advance op by op as in a
        :meth:`retire` loop (whole cycles stepped as ``r // 1.0``, exact
        like ``int(r)`` for ``r >= 0``, and summed as a float converted once
        per pass); event pulses are aggregated up to the PMU's overflow
        horizon (:meth:`~repro.pmu.unit.PmuUnit.overflow_horizon`).  At the
        first op whose pulses would reach it, the aggregate before it
        (which cannot overflow) is published, the task pc is set, that
        *crossing* op retires through the per-op :meth:`_publish` order and
        the horizon is re-read.  Samples see the exact pc, clock and
        callchain, and group values count the crossing op's events published
        before the leader's and none after: bit-identical to per-op retirement.

        The predictor is gshare, updated inline as
        :meth:`GsharePredictor.update` would be: its history and tables are
        read into locals at the start of each pass, and its history and
        counts are written back at the end of the pass, before a crossing
        op retires.  A crossing branch is predicted in the pass and counted
        there once.

        A chunk's ops name their sites (class, pc, size, lanes); their
        ``address`` fields are not read.  *mem_results* holds the chunk's
        access results from ``access_lines``, in order: every memory op of
        positive size consumes the next one.  *task*, if given, ends at the
        chunk's last pc.  Returns the integer cycles the chunk consumed.
        """
        table = self._batch_info
        if table is None:
            table = self._build_batch_info()
            self._batch_info = table
        predictor = self.predictor
        counters = predictor._counters
        table_size = predictor._table_size
        history_mask = predictor._history_mask
        mem_costs = self._mem_cost_cache
        cost_row = self._cost_row
        publish = self.bus.publish
        pmu = self.pmu
        mode_event = _MODE_CYCLE_EVENT[self.privilege_mode]
        mem_index = 0
        cycles_before = self.total_cycles
        remaining = iter(ops)   # each pass resumes just past the crossing op
        start = 0               # index in ops of the pass's first op

        while True:
            cycles_left, instructions_left = (   # no PMU: nothing overflows
                pmu.overflow_horizon(mode_event) if pmu is not None
                else (UNBOUNDED, UNBOUNDED))
            remainder = self._cycle_remainder
            history = predictor._history
            cycles_total = 0.0
            count = frontend_pulses = backend_pulses = 0
            loads = stores = branches = branch_misses = 0
            load_misses = store_misses = llc_misses = dram_read = dram_write = 0
            flops = int_ops = vector_ops = 0

            for op in remaining:
                info = table[op.opclass.index]
                kind = info[0]
                if kind == 0:
                    total, fp, bp = info[1]
                elif kind == 1:
                    if op.size_bytes > 0:
                        mem = mem_results[mem_index]
                        mem_index += 1
                        cached = mem_costs.get(mem.latency)
                        if cached is None:
                            cached = mem_costs[mem.latency] = cost_row(op, mem)
                        total, fp, bp = cached
                    else:
                        mem = None
                        total, fp, bp = info[1]
                else:       # GsharePredictor.update, inline
                    taken = op.taken
                    index = ((op.pc >> 2) ^ history) % table_size
                    counter = counters.get(index, 2)
                    mispredicted = (counter >= 2) != taken
                    if taken:
                        if counter < 3:
                            counters[index] = counter + 1
                        history = ((history << 1) | 1) & history_mask
                    else:
                        if counter:
                            counters[index] = counter - 1
                        history = (history << 1) & history_mask
                    total, fp, bp = info[1][taken][mispredicted]

                r = remainder + total
                cycles = r // 1.0
                cycles_total += cycles
                count += 1
                if cycles_total >= cycles_left or count >= instructions_left:
                    cycles_total -= cycles      # the crossing op retires apart
                    count -= 1
                    break
                remainder = r - cycles
                frontend_pulses += fp
                backend_pulses += bp
                if kind == 0:
                    flop_factor = info[2]
                    if flop_factor:
                        flops += flop_factor * op.lanes
                    elif info[3]:
                        int_ops += op.lanes
                    if info[4]:
                        vector_ops += 1
                elif kind == 1:
                    if info[2]:
                        loads += 1
                    else:
                        stores += 1
                    if mem is not None:
                        if mem.l1_miss:
                            if info[2]:
                                load_misses += 1
                            else:
                                store_misses += 1
                        if mem.llc_miss:
                            llc_misses += 1
                        dram = mem.dram_bytes
                        if dram:
                            if info[3]:
                                dram_write += dram
                            else:
                                dram_read += dram
                    if info[4]:
                        vector_ops += 1
                else:
                    branches += 1
                    if mispredicted:
                        branch_misses += 1
            else:
                op = None       # no crossing op: the chunk is exhausted

            # Write the predictor back before the crossing op publishes; a
            # crossing branch was predicted above, so it counts here once.
            crossing_branch = op is not None and kind == 2
            predictor._history = history
            predictor._predictions += branches + crossing_branch
            predictor._mispredictions += (branch_misses
                                          + (crossing_branch and mispredicted))

            # Publish the ops before the crossing op (or the whole rest of
            # the chunk): by construction their pulses reach no horizon.
            self._cycle_remainder = remainder
            cycles_total = int(cycles_total)
            self.total_cycles += cycles_total
            self.retired_instructions += count
            if cycles_total:
                publish(HwEvent.CYCLES, cycles_total)
                publish(mode_event, cycles_total)
            if count:
                publish(HwEvent.INSTRUCTIONS, count)
            if loads:
                publish(HwEvent.LOADS_RETIRED, loads)
                publish(HwEvent.L1D_LOADS, loads)
            if stores:
                publish(HwEvent.STORES_RETIRED, stores)
                publish(HwEvent.L1D_STORES, stores)
            if loads or stores:
                publish(HwEvent.CACHE_REFERENCES, loads + stores)
            if load_misses:
                publish(HwEvent.L1D_LOAD_MISSES, load_misses)
            if store_misses:
                publish(HwEvent.L1D_STORE_MISSES, store_misses)
            if llc_misses:
                publish(HwEvent.CACHE_MISSES, llc_misses)
            if dram_read:
                publish(HwEvent.DRAM_READ_BYTES, dram_read)
            if dram_write:
                publish(HwEvent.DRAM_WRITE_BYTES, dram_write)
            if branches:
                publish(HwEvent.BRANCH_INSTRUCTIONS, branches)
            if branch_misses:
                publish(HwEvent.BRANCH_MISSES, branch_misses)
            if flops:
                publish(HwEvent.FP_OPS_RETIRED, flops)
            if int_ops:
                publish(HwEvent.INT_OPS_RETIRED, int_ops)
            if vector_ops:
                publish(HwEvent.VECTOR_OPS_RETIRED, vector_ops)
            if frontend_pulses:
                publish(HwEvent.STALLED_CYCLES_FRONTEND, frontend_pulses)
            if backend_pulses:
                publish(HwEvent.STALLED_CYCLES_BACKEND, backend_pulses)

            if op is None:
                if task is not None:
                    _sync_pc(task, ops, len(ops) - 1)
                return self.total_cycles - cycles_before
            index = start + count       # the crossing op's index in ops
            if task is not None:
                _sync_pc(task, ops, index)
            self._retire_one(op, mem if kind == 1 else None,
                             crossing_branch and mispredicted, total, fp, bp)
            start = index + 1

    # -- event publication ------------------------------------------------------

    def _publish(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool, cycles: int,
                 frontend_pulse: int, backend_pulse: int) -> None:
        bus = self.bus
        if cycles:
            bus.publish(HwEvent.CYCLES, cycles)
            bus.publish(_MODE_CYCLE_EVENT[self.privilege_mode], cycles)
        bus.publish(HwEvent.INSTRUCTIONS, 1)

        if op.is_load:
            bus.publish(HwEvent.LOADS_RETIRED, 1)
            bus.publish(HwEvent.L1D_LOADS, 1)
        elif op.is_store:
            bus.publish(HwEvent.STORES_RETIRED, 1)
            bus.publish(HwEvent.L1D_STORES, 1)
        if op.is_memory:
            bus.publish(HwEvent.CACHE_REFERENCES, 1)
            if mem is not None:
                if mem.l1_miss:
                    bus.publish(
                        HwEvent.L1D_LOAD_MISSES if op.is_load else HwEvent.L1D_STORE_MISSES,
                        1,
                    )
                if mem.llc_miss:
                    bus.publish(HwEvent.CACHE_MISSES, 1)
                if mem.dram_bytes:
                    if op.is_store:
                        bus.publish(HwEvent.DRAM_WRITE_BYTES, mem.dram_bytes)
                    else:
                        bus.publish(HwEvent.DRAM_READ_BYTES, mem.dram_bytes)

        if op.is_branch:
            bus.publish(HwEvent.BRANCH_INSTRUCTIONS, 1)
            if mispredicted:
                bus.publish(HwEvent.BRANCH_MISSES, 1)

        flops = op.flop_count
        if flops:
            bus.publish(HwEvent.FP_OPS_RETIRED, flops)
        int_ops = op.int_op_count
        if int_ops:
            bus.publish(HwEvent.INT_OPS_RETIRED, int_ops)
        if op.is_vector:
            bus.publish(HwEvent.VECTOR_OPS_RETIRED, 1)

        if frontend_pulse:
            bus.publish(HwEvent.STALLED_CYCLES_FRONTEND, frontend_pulse)
        if backend_pulse:
            bus.publish(HwEvent.STALLED_CYCLES_BACKEND, backend_pulse)

    # -- misc -------------------------------------------------------------------

    def set_privilege_mode(self, mode: PrivilegeMode) -> None:
        self.privilege_mode = mode


class InOrderCore(CoreTimingModel):
    """Dual-issue in-order pipeline: stalls are exposed at retire."""

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        cfg = self.config
        base = 1.0 / cfg.issue_width
        frontend = 0.0
        backend = 0.0

        latency = cfg.latency_of(op.opclass)
        if op.is_memory:
            if mem is not None:
                # The first hit-latency cycle overlaps with issue; the rest is
                # exposed according to the core's (limited) MLP.
                backend += max(0, mem.latency - 1) * cfg.memory_exposure
            else:
                backend += max(0, latency - 1) * cfg.memory_exposure
        else:
            backend += max(0, latency - 1) * cfg.dependency_exposure

        if op.is_control:
            if mispredicted:
                frontend += cfg.mispredict_penalty
            elif op.taken or op.opclass in (OpClass.JUMP, OpClass.CALL, OpClass.RET):
                frontend += cfg.taken_branch_bubble

        return base, frontend, backend


class OutOfOrderCore(CoreTimingModel):
    """Wide out-of-order machine: most latency is hidden by the scheduler."""

    #: How much of the *exposed* stall an OoO core still pays relative to the
    #: in-order formula.  The scheduler and deep MLP hide the rest.
    HIDE_FACTOR = 0.10

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        cfg = self.config
        base = 1.0 / cfg.issue_width
        frontend = 0.0
        backend = 0.0

        latency = cfg.latency_of(op.opclass)
        if op.is_memory:
            if mem is not None:
                exposed = max(0, mem.latency - 1) * cfg.memory_exposure
            else:
                exposed = max(0, latency - 1) * cfg.memory_exposure
            backend += exposed * self.HIDE_FACTOR
        elif op.opclass in (OpClass.INT_DIV, OpClass.FP_DIV):
            # Divides are unpipelined even on big cores.
            backend += max(0, latency - 1) * cfg.dependency_exposure
        else:
            backend += max(0, latency - 1) * cfg.dependency_exposure * self.HIDE_FACTOR

        if op.is_branch and mispredicted:
            frontend += cfg.mispredict_penalty

        return base, frontend, backend
