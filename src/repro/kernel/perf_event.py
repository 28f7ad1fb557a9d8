"""The ``perf_event`` core: event groups, scheduling, sampling, reads.

This module reproduces the subset of Linux perf_event semantics the paper's
workaround depends on:

* ``perf_event_open()`` validates the request against the architecture PMU
  driver and returns a file descriptor; unsupported sampling requests fail
  with ``EOPNOTSUPP`` exactly like the real syscall does on the SpacemiT X60.
* Events form *groups*: a leader plus siblings that are scheduled onto the
  PMU together and can be read as a unit (``PERF_FORMAT_GROUP``).
* A sampling event (``sample_period > 0``) arms an overflow interrupt on its
  hardware counter.  When it fires, the "interrupt handler" records a sample:
  instruction pointer, call chain and -- when ``PERF_SAMPLE_READ`` is set --
  the values of *every* counter in the group.  That last part is the
  mechanism the paper exploits: make a sampling-capable vendor counter the
  leader and cycles/instructions ride along in each sample.
* Events that cannot all fit on hardware are multiplexed; reads report
  ``time_enabled``/``time_running`` so users can scale counts, and miniperf's
  correction layer does exactly that.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.cpu.events import HwEvent
from repro.kernel.drivers import AllocatedCounter, EventInitError, PmuDriver
from repro.kernel.ring_buffer import RingBuffer, SampleRecord
from repro.kernel.task import Task
from repro.pmu.counters import CounterOverflow


class SampleType(enum.Enum):
    """What gets recorded in each sample (PERF_SAMPLE_*)."""

    IP = "ip"
    TID = "tid"
    TIME = "time"
    CALLCHAIN = "callchain"
    READ = "read"
    PERIOD = "period"


class ReadFormat(enum.Enum):
    """How counter reads are formatted (PERF_FORMAT_*)."""

    GROUP = "group"
    TOTAL_TIME_ENABLED = "total_time_enabled"
    TOTAL_TIME_RUNNING = "total_time_running"


class PerfEventOpenError(OSError):
    """Raised when perf_event_open() fails; carries an errno name."""

    def __init__(self, errno_name: str, message: str):
        super().__init__(message)
        self.errno_name = errno_name

    def __reduce__(self):
        # A Run carries its failures across process boundaries (the parallel
        # run executor pickles Runs); rebuild with both constructor args --
        # the OSError default would replay only ``args`` and lose one.
        return (type(self), (self.errno_name, self.args[0]))


@dataclass(frozen=True)
class PerfEventAttr:
    """The subset of ``struct perf_event_attr`` the model needs."""

    event: HwEvent
    sample_period: int = 0
    sample_type: FrozenSet[SampleType] = frozenset()
    read_format: FrozenSet[ReadFormat] = frozenset()
    disabled: bool = True
    exclude_kernel: bool = False
    exclude_user: bool = False

    @property
    def is_sampling(self) -> bool:
        return self.sample_period > 0


@dataclass
class PerfReadValue:
    """Result of reading an event (or an event group)."""

    value: int
    time_enabled: int
    time_running: int
    #: Present when the event was read with PERF_FORMAT_GROUP: one entry per
    #: group member, leader first, keyed by event name.
    group: Dict[str, int] = field(default_factory=dict)

    @property
    def scaling_factor(self) -> float:
        """Multiplexing correction factor (1.0 when never descheduled)."""
        if self.time_running == 0:
            return 0.0
        return self.time_enabled / self.time_running

    @property
    def scaled_value(self) -> float:
        return self.value * self.scaling_factor


class _EventState(enum.Enum):
    OFF = "off"              # disabled
    INACTIVE = "inactive"    # enabled but not on hardware (multiplexed out)
    ACTIVE = "active"        # counting on hardware


class PerfEvent:
    """Kernel-side state of one opened perf event."""

    def __init__(self, fd: int, attr: PerfEventAttr, task: Task,
                 leader: Optional["PerfEvent"] = None):
        self.fd = fd
        self.attr = attr
        self.task = task
        self.leader = leader or self
        self.siblings: List["PerfEvent"] = []   # populated on the leader only
        self.state = _EventState.OFF
        self.allocated: Optional[AllocatedCounter] = None
        self.ring_buffer: Optional[RingBuffer] = None
        self.accumulated = 0                    # count carried over descheduling
        self.time_enabled = 0
        self.time_running = 0
        self._enable_timestamp = 0
        self._run_timestamp = 0
        self.samples_taken = 0

    @property
    def is_leader(self) -> bool:
        return self.leader is self

    def group_events(self) -> List["PerfEvent"]:
        """The whole group, leader first (valid on any member)."""
        return [self.leader] + self.leader.siblings

    def __repr__(self) -> str:
        return (
            f"PerfEvent(fd={self.fd}, event={self.attr.event.value}, "
            f"state={self.state.value}, leader_fd={self.leader.fd})"
        )


class PerfEventSubsystem:
    """The per-machine perf_event core.

    Parameters
    ----------
    driver:
        The architecture PMU driver for the machine.
    clock:
        A callable returning the current time in machine cycles; used for
        ``time_enabled``/``time_running`` accounting and sample timestamps.
    cpu:
        Logical CPU (hart) index this subsystem belongs to; stamped into
        every sample so multi-hart recordings keep per-hart streams apart.
    current_task:
        Optional provider of the task currently running on this CPU.  When
        it returns a task, sampling interrupts attribute to that task rather
        than the event's opening task -- the system-wide (``cpu=-1``-style)
        attribution semantics.  When None or returning None, samples
        attribute to the opening task exactly as before.
    """

    def __init__(self, driver: PmuDriver, clock: Callable[[], int],
                 cpu: int = 0,
                 current_task: Optional[Callable[[], Optional[Task]]] = None):
        self.driver = driver
        self.clock = clock
        self.cpu = cpu
        self.current_task = current_task
        self._events: Dict[int, PerfEvent] = {}
        self._fd_counter = itertools.count(3)
        self.overflow_interrupts = 0

    # -- syscall surface ---------------------------------------------------------

    def perf_event_open(self, attr: PerfEventAttr, task: Task,
                        group_fd: int = -1) -> int:
        """Open a new event; returns a file descriptor or raises.

        Mirrors the syscall's error behaviour: ``ENOENT`` for events the PMU
        does not expose, ``EOPNOTSUPP`` for sampling requests the hardware
        cannot honour, ``EBADF`` for a bogus group fd.
        """
        leader: Optional[PerfEvent] = None
        if group_fd != -1:
            leader = self._events.get(group_fd)
            if leader is None or not leader.is_leader:
                raise PerfEventOpenError("EBADF", f"invalid group fd {group_fd}")

        try:
            self.driver.event_init(attr.event, sampling=attr.is_sampling)
        except EventInitError as exc:
            raise PerfEventOpenError(exc.errno_name, str(exc))

        fd = next(self._fd_counter)
        event = PerfEvent(fd, attr, task, leader=leader)
        if leader is not None:
            leader.siblings.append(event)
        if attr.is_sampling:
            event.ring_buffer = RingBuffer()
        self._events[fd] = event
        return fd

    def event(self, fd: int) -> PerfEvent:
        try:
            return self._events[fd]
        except KeyError:
            raise PerfEventOpenError("EBADF", f"unknown perf fd {fd}")

    def mmap(self, fd: int) -> RingBuffer:
        """Return the ring buffer of a sampling event (perf's mmap step)."""
        event = self.event(fd)
        if event.ring_buffer is None:
            raise PerfEventOpenError(
                "EINVAL", f"fd {fd} is a counting event; it has no ring buffer"
            )
        return event.ring_buffer

    # -- enable / disable -----------------------------------------------------------

    def enable(self, fd: int) -> None:
        """PERF_EVENT_IOC_ENABLE; on a group leader, the whole group
        (IOC_FLAG_GROUP semantics)."""
        event = self.event(fd)
        targets = event.group_events() if event.is_leader else [event]
        for target in targets:
            self._enable_one(target)

    def disable(self, fd: int) -> None:
        event = self.event(fd)
        targets = event.group_events() if event.is_leader else [event]
        for target in targets:
            self._disable_one(target)

    def close(self, fd: int) -> None:
        event = self._events.pop(fd, None)
        if event is None:
            return
        self._disable_one(event)
        if not event.is_leader and event in event.leader.siblings:
            event.leader.siblings.remove(event)

    def _enable_one(self, event: PerfEvent) -> None:
        if event.state is not _EventState.OFF:
            return
        now = self.clock()
        event._enable_timestamp = now
        event.state = _EventState.INACTIVE
        self._schedule(event)

    def _schedule(self, event: PerfEvent) -> None:
        """Try to put an enabled event onto a hardware counter."""
        if event.state is not _EventState.INACTIVE:
            return
        handler = None
        if event.attr.is_sampling:
            handler = self._make_overflow_handler(event)
        try:
            event.allocated = self.driver.add(
                event.attr.event,
                sample_period=event.attr.sample_period,
                overflow_handler=handler,
            )
        except EventInitError:
            # Could not get a counter right now: stays INACTIVE (multiplexed
            # out); time_enabled accrues while time_running does not.
            event.allocated = None
            return
        except RuntimeError:
            event.allocated = None
            return
        event.state = _EventState.ACTIVE
        event._run_timestamp = self.clock()

    def _disable_one(self, event: PerfEvent) -> None:
        if event.state is _EventState.OFF:
            return
        now = self.clock()
        event.time_enabled += now - event._enable_timestamp
        if event.state is _EventState.ACTIVE:
            event.time_running += now - event._run_timestamp
            assert event.allocated is not None
            event.accumulated += self.driver.read(event.allocated)
            self.driver.remove(event.allocated)
            event.allocated = None
        event.state = _EventState.OFF

    def rotate(self) -> None:
        """Multiplexing rotation: deschedule active events, schedule waiting ones.

        The real kernel does this from a timer tick; callers that open more
        events than the PMU has counters should invoke it periodically.
        """
        now = self.clock()
        active = [e for e in self._events.values() if e.state is _EventState.ACTIVE]
        waiting = [e for e in self._events.values() if e.state is _EventState.INACTIVE]
        if not waiting:
            return
        for event in active:
            event.time_running += now - event._run_timestamp
            assert event.allocated is not None
            event.accumulated += self.driver.read(event.allocated)
            self.driver.remove(event.allocated)
            event.allocated = None
            event.state = _EventState.INACTIVE
        for event in waiting + active:
            self._schedule(event)

    # -- reads -------------------------------------------------------------------------

    def read(self, fd: int) -> PerfReadValue:
        event = self.event(fd)
        value = self._current_count(event)
        enabled, running = self._current_times(event)
        group: Dict[str, int] = {}
        if ReadFormat.GROUP in event.attr.read_format:
            for member in event.group_events():
                group[member.attr.event.value] = self._current_count(member)
        return PerfReadValue(
            value=value, time_enabled=enabled, time_running=running, group=group
        )

    def _current_count(self, event: PerfEvent) -> int:
        value = event.accumulated
        if event.state is _EventState.ACTIVE and event.allocated is not None:
            value += self.driver.read(event.allocated)
        return value

    def _current_times(self, event: PerfEvent):
        now = self.clock()
        enabled = event.time_enabled
        running = event.time_running
        if event.state is not _EventState.OFF:
            enabled += now - event._enable_timestamp
        if event.state is _EventState.ACTIVE:
            running += now - event._run_timestamp
        return enabled, running

    # -- sampling ------------------------------------------------------------------------

    def _make_overflow_handler(self, event: PerfEvent):
        def handler(overflow: CounterOverflow) -> None:
            self._record_sample(event, overflow)
        return handler

    def _record_sample(self, event: PerfEvent, overflow: CounterOverflow) -> None:
        """The PMU interrupt handler: snapshot context, write a sample."""
        self.overflow_interrupts += 1
        task = event.task
        if self.current_task is not None:
            running = self.current_task()
            if running is not None:
                task = running
        if event.attr.exclude_kernel and task.in_kernel:
            return
        if event.attr.exclude_user and not task.in_kernel:
            return

        callchain = ()
        if SampleType.CALLCHAIN in event.attr.sample_type:
            callchain = task.callchain()

        group_values: Dict[str, int] = {}
        if SampleType.READ in event.attr.sample_type:
            members = (
                event.group_events()
                if ReadFormat.GROUP in event.attr.read_format
                else [event]
            )
            for member in members:
                group_values[member.attr.event.value] = self._current_count(member)

        record = SampleRecord(
            ip=task.current_pc,
            pid=task.pid,
            tid=task.tid,
            time=self.clock(),
            period=overflow.period,
            event=event.attr.event.value,
            callchain=callchain,
            group_values=group_values,
            cpu=self.cpu,
        )
        buffer = event.ring_buffer
        if buffer is None:
            buffer = event.leader.ring_buffer
        if buffer is not None:
            buffer.write(record)
            event.samples_taken += 1

    # -- diagnostics ---------------------------------------------------------------------

    def open_events(self) -> List[PerfEvent]:
        return list(self._events.values())

    def __repr__(self) -> str:
        return (
            f"PerfEventSubsystem(driver={self.driver.name}, "
            f"open_events={len(self._events)}, interrupts={self.overflow_interrupts})"
        )
