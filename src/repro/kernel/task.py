"""The profiled task and call-chain capture.

When a sampling counter overflows, the kernel's interrupt handler records the
interrupted context: program counter, pid/tid and -- when requested -- the
call chain.  In this model the execution engines (the IR interpreter and the
synthetic trace executor) keep an explicit call stack on the task, so the
"interrupt handler" can simply snapshot it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class StackFrame:
    """One frame of the profiled task's call stack."""

    function: str
    pc: int = 0
    source_file: str = ""
    line: int = 0

    def __str__(self) -> str:
        return self.function


class Task:
    """A profiled process/thread.

    The execution engine pushes and pops frames as the program calls and
    returns; :meth:`callchain` returns the leaf-first chain exactly like
    ``PERF_SAMPLE_CALLCHAIN`` does.
    """

    _next_pid = 1000

    def __init__(self, name: str, pid: Optional[int] = None, tid: Optional[int] = None):
        if pid is None:
            pid = Task._next_pid
            Task._next_pid += 1
        self.name = name
        self.pid = pid
        self.tid = tid if tid is not None else pid
        self._stack: List[StackFrame] = []
        self.current_pc = 0
        #: Set to True while the task executes in kernel context (so perf's
        #: exclude_kernel / exclude_user filters have something to act on).
        self.in_kernel = False

    # -- call stack maintenance (used by execution engines) -----------------------

    def push_frame(self, function: str, pc: int = 0, source_file: str = "",
                   line: int = 0) -> StackFrame:
        frame = StackFrame(function=function, pc=pc, source_file=source_file, line=line)
        self._stack.append(frame)
        return frame

    def pop_frame(self) -> StackFrame:
        if not self._stack:
            raise RuntimeError(f"task {self.name}: pop from empty call stack")
        return self._stack.pop()

    def set_pc(self, pc: int) -> None:
        self.current_pc = pc

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- sampling-side API -----------------------------------------------------------

    def callchain(self) -> Tuple[str, ...]:
        """Return the call chain, leaf (currently executing function) first."""
        return tuple(frame.function for frame in reversed(self._stack))

    def __repr__(self) -> str:
        return f"Task(name={self.name!r}, pid={self.pid}, depth={self.depth})"
