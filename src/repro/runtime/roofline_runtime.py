"""Runtime support for the Roofline instrumentation.

The instrumentation pass inserts calls to four entry points; this module
implements them as an external-call handler for the execution engine:

* ``mperf_roofline_internal_notify_loop_begin(loop_id) -> handle``
* ``mperf_roofline_internal_is_instrumented_profiling() -> i1``
* ``mperf_roofline_internal_block_exec(handle, loaded, stored, intops, fpops)``
* ``mperf_roofline_internal_notify_loop_end(handle)``

Whether the instrumented or the baseline loop version runs is controlled per
runtime instance (and can be forced through the ``MPERF_INSTRUMENT``
environment variable, mirroring the real tool).  Each completed loop
execution produces a :class:`LoopExecutionRecord` combining the byte/op
counts accumulated by ``block_exec`` with the elapsed cycles and instructions
observed on the machine between begin and end -- exactly the quantities the
two-phase roofline construction needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.transforms.roofline_pass import (
    LoopDescriptor,
    MPERF_LOOPS_KEY,
    RUNTIME_BLOCK_EXEC,
    RUNTIME_IS_INSTRUMENTED,
    RUNTIME_NOTIFY_BEGIN,
    RUNTIME_NOTIFY_END,
)
from repro.compiler.ir.module import Module
from repro.platforms.machine import Machine

#: Environment variable that forces instrumented profiling on (value "1").
MPERF_INSTRUMENT_ENV = "MPERF_INSTRUMENT"


@dataclass
class LoopExecutionRecord:
    """One dynamic execution of one instrumented loop nest."""

    loop_id: int
    descriptor: Optional[LoopDescriptor]
    instrumented: bool
    loaded_bytes: int = 0
    stored_bytes: int = 0
    int_ops: int = 0
    fp_ops: int = 0
    cycles: int = 0
    instructions: int = 0

    @property
    def total_bytes(self) -> int:
        return self.loaded_bytes + self.stored_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic (the roofline x-axis)."""
        return self.fp_ops / self.total_bytes if self.total_bytes else 0.0

    def gflops(self, frequency_hz: float) -> float:
        """Achieved GFLOP/s given the core frequency (the roofline y-axis)."""
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / frequency_hz
        return self.fp_ops / seconds / 1e9

    def bandwidth_gbps(self, frequency_hz: float) -> float:
        """Achieved memory traffic in GB/s."""
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / frequency_hz
        return self.total_bytes / seconds / 1e9

    def label(self) -> str:
        if self.descriptor is not None:
            return self.descriptor.label()
        return f"loop#{self.loop_id}"


class _ActiveLoop:
    __slots__ = ("record", "begin_cycles", "begin_instructions")

    def __init__(self, record: LoopExecutionRecord, begin_cycles: int,
                 begin_instructions: int):
        self.record = record
        self.begin_cycles = begin_cycles
        self.begin_instructions = begin_instructions


class RooflineRuntime:
    """External-call handler implementing the mperf runtime entry points."""

    def __init__(self, module: Optional[Module] = None,
                 machine: Optional[Machine] = None,
                 instrumented: Optional[bool] = None):
        self.machine = machine
        self.loops_table: Dict[int, LoopDescriptor] = {}
        if module is not None:
            self.loops_table = dict(module.metadata.get(MPERF_LOOPS_KEY, {}))
        if instrumented is None:
            instrumented = os.environ.get(MPERF_INSTRUMENT_ENV, "0") == "1"
        self.instrumented = instrumented
        self.records: List[LoopExecutionRecord] = []
        self._active: Dict[int, _ActiveLoop] = {}
        self._next_handle = 1

    # -- external-call handler protocol ---------------------------------------------------

    _HANDLED = frozenset({
        RUNTIME_NOTIFY_BEGIN,
        RUNTIME_NOTIFY_END,
        RUNTIME_IS_INSTRUMENTED,
        RUNTIME_BLOCK_EXEC,
    })

    def handles(self, name: str) -> bool:
        return name in self._HANDLED

    def observes_machine(self, name: str) -> bool:
        """Only the loop begin/end notifications read the machine (its
        clock and instruction count), so only they need every op the
        program executed before the call already retired."""
        return name in (RUNTIME_NOTIFY_BEGIN, RUNTIME_NOTIFY_END)

    def call(self, name: str, args: List[object]) -> object:
        if name == RUNTIME_IS_INSTRUMENTED:
            return 1 if self.instrumented else 0
        if name == RUNTIME_NOTIFY_BEGIN:
            return self._notify_begin(int(args[0]))
        if name == RUNTIME_BLOCK_EXEC:
            return self._block_exec(int(args[0]), int(args[1]), int(args[2]),
                                    int(args[3]), int(args[4]))
        if name == RUNTIME_NOTIFY_END:
            return self._notify_end(int(args[0]))
        raise KeyError(f"RooflineRuntime does not handle {name!r}")

    # -- entry points ------------------------------------------------------------------------

    def _now(self) -> int:
        return self.machine.clock() if self.machine is not None else 0

    def _instructions_now(self) -> int:
        return self.machine.instructions if self.machine is not None else 0

    def _notify_begin(self, loop_id: int) -> int:
        handle = self._next_handle
        self._next_handle += 1
        record = LoopExecutionRecord(
            loop_id=loop_id,
            descriptor=self.loops_table.get(loop_id),
            instrumented=self.instrumented,
        )
        self._active[handle] = _ActiveLoop(record, self._now(), self._instructions_now())
        return handle

    def _block_exec(self, handle: int, loaded: int, stored: int,
                    int_ops: int, fp_ops: int) -> None:
        active = self._active.get(handle)
        if active is None:
            return
        record = active.record
        record.loaded_bytes += loaded
        record.stored_bytes += stored
        record.int_ops += int_ops
        record.fp_ops += fp_ops

    def _notify_end(self, handle: int) -> None:
        active = self._active.pop(handle, None)
        if active is None:
            return
        record = active.record
        record.cycles = self._now() - active.begin_cycles
        record.instructions = self._instructions_now() - active.begin_instructions
        self.records.append(record)

    # -- result access -----------------------------------------------------------------------

    def records_for_loop(self, loop_id: int) -> List[LoopExecutionRecord]:
        return [r for r in self.records if r.loop_id == loop_id]

    def merged_record(self, loop_id: int) -> Optional[LoopExecutionRecord]:
        """Aggregate every execution of one loop into a single record."""
        records = self.records_for_loop(loop_id)
        if not records:
            return None
        merged = LoopExecutionRecord(
            loop_id=loop_id,
            descriptor=records[0].descriptor,
            instrumented=any(r.instrumented for r in records),
        )
        for record in records:
            merged.loaded_bytes += record.loaded_bytes
            merged.stored_bytes += record.stored_bytes
            merged.int_ops += record.int_ops
            merged.fp_ops += record.fp_ops
            merged.cycles += record.cycles
            merged.instructions += record.instructions
        return merged

    def reset(self) -> None:
        self.records.clear()
        self._active.clear()
