"""The perf mmap ring buffer and sample records.

Real perf transfers samples to user space through a ring buffer mapped into
the profiler's address space; when the profiler cannot drain it fast enough,
records are dropped and accounted as "lost".  We keep that behaviour because
sampling-period ablations need to show the lost-sample cliff.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class SampleRecord:
    """One PERF_RECORD_SAMPLE."""

    ip: int
    pid: int
    tid: int
    time: int
    period: int
    event: str                               # name of the overflowing event
    callchain: Tuple[str, ...] = ()
    #: Group readout at sample time: event name -> count (PERF_SAMPLE_READ
    #: with PERF_FORMAT_GROUP).  This is what makes the X60 workaround give
    #: IPC per sample.
    group_values: Dict[str, int] = field(default_factory=dict)
    cpu: int = 0

    @property
    def leaf_function(self) -> str:
        return self.callchain[0] if self.callchain else "<unknown>"


class RingBuffer:
    """A bounded FIFO of sample records with lost-record accounting."""

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[SampleRecord] = deque()
        self.lost = 0
        self.total_written = 0

    def write(self, record: SampleRecord) -> bool:
        """Append a record; returns False (and counts it lost) when full."""
        if len(self._records) >= self.capacity:
            self.lost += 1
            return False
        self._records.append(record)
        self.total_written += 1
        return True

    def read(self) -> Optional[SampleRecord]:
        """Pop the oldest record, or None when empty."""
        if not self._records:
            return None
        return self._records.popleft()

    def drain(self) -> List[SampleRecord]:
        """Read and return every pending record."""
        out = list(self._records)
        self._records.clear()
        return out

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(list(self._records))

    def __repr__(self) -> str:
        return (
            f"RingBuffer(pending={len(self._records)}, written={self.total_written}, "
            f"lost={self.lost}, capacity={self.capacity})"
        )
