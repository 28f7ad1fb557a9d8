"""The SMP subsystem: multi-hart machines and system-wide profiling.

The single-hart model stacks one core, one PMU, one firmware context and one
perf_event subsystem behind one :class:`~repro.platforms.machine.Machine`.
This package scales that stack sideways, the way the paper's platforms
actually ship (the Banana Pi F3 is an octa-core board):

* :class:`MultiHartMachine` -- N per-hart cores + private L1s + per-hart
  PMU/CSR/firmware over a :class:`SharedMemorySystem` (shared LLC plus a
  bandwidth-contended memory controller);
* :class:`RoundRobinScheduler` / :class:`Thread` -- deterministic
  round-robin time-slicing of software threads across harts;
* :func:`smp_stat` / :func:`smp_record` -- ``perf stat -a`` / ``perf record
  -a`` semantics: per-CPU event attachment with cross-hart aggregation and
  per-hart sample streams tagged with ``cpu``;
* :class:`SystemWideEvent` -- the ``cpu=-1``-style attachment handle.

``cpus=1`` never routes through this package: the session API keeps the
single-hart fast path byte-for-byte identical to previous releases.
"""

from repro.smp.machine import (
    MultiHartMachine,
    SystemWideEvent,
    SystemWideReadValue,
)
from repro.smp.memory import MemoryController, SharedMemorySystem
from repro.smp.perf import (
    SmpRecordingResult,
    SmpStatResult,
    aggregate_roofline,
    merge_hotspot_reports,
    smp_record,
    smp_stat,
)
from repro.smp.scheduler import (
    RoundRobinScheduler,
    ScheduleTrace,
    Thread,
    ThreadBody,
    run_threads,
)

__all__ = [
    "MultiHartMachine",
    "SystemWideEvent",
    "SystemWideReadValue",
    "SharedMemorySystem",
    "MemoryController",
    "RoundRobinScheduler",
    "Thread",
    "ThreadBody",
    "ScheduleTrace",
    "run_threads",
    "smp_stat",
    "smp_record",
    "SmpStatResult",
    "SmpRecordingResult",
    "merge_hotspot_reports",
    "aggregate_roofline",
]
