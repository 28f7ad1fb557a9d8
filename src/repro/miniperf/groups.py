"""Sampling-group planning: the heart of the X60 workaround.

Given the events the user wants sampled (typically cycles and instructions,
for IPC) and the identified CPU, decide which event leads the perf group and
which events ride along as members.  On healthy PMUs the first requested
event leads; on parts with the X60 defect a sampling-capable vendor event
(``u_mode_cycle``) leads and *all* requested events become members, read out
at every leader overflow via ``PERF_SAMPLE_READ`` + ``PERF_FORMAT_GROUP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cpu.events import HwEvent
from repro.kernel.perf_event import PerfEventAttr, ReadFormat, SampleType
from repro.miniperf.cpuid import CpuInfo


class SamplingNotSupportedError(Exception):
    """Raised when no sampling plan exists for the identified CPU."""


@dataclass
class GroupPlan:
    """A planned perf event group."""

    leader_event: HwEvent
    member_events: List[HwEvent]
    sample_period: int
    used_workaround: bool
    cpu: CpuInfo

    def leader_attr(self, callchain: bool = True) -> PerfEventAttr:
        sample_type = {SampleType.IP, SampleType.TID, SampleType.TIME,
                       SampleType.PERIOD, SampleType.READ}
        if callchain:
            sample_type.add(SampleType.CALLCHAIN)
        return PerfEventAttr(
            event=self.leader_event,
            sample_period=self.sample_period,
            sample_type=frozenset(sample_type),
            read_format=frozenset({ReadFormat.GROUP,
                                   ReadFormat.TOTAL_TIME_ENABLED,
                                   ReadFormat.TOTAL_TIME_RUNNING}),
        )

    def member_attrs(self) -> List[PerfEventAttr]:
        return [
            PerfEventAttr(
                event=event,
                read_format=frozenset({ReadFormat.GROUP}),
            )
            for event in self.member_events
        ]

    def describe(self) -> str:
        members = ", ".join(e.value for e in self.member_events) or "<none>"
        strategy = "group-leader workaround" if self.used_workaround else "direct"
        return (
            f"{self.cpu.core}: leader={self.leader_event.value} "
            f"(period={self.sample_period}), members=[{members}], strategy={strategy}"
        )


def plan_sampling_group(cpu: CpuInfo, events: Sequence[HwEvent],
                        sample_period: int = 100_000) -> GroupPlan:
    """Plan a sampling group for *events* on *cpu*.

    Standard ``perf`` behaviour would be to sample the first event directly;
    miniperf checks the quirk database first.  Three outcomes:

    * the CPU samples the requested events directly -> the first requested
      event leads;
    * the CPU needs the workaround -> the vendor leader event is added and
      leads; the requested events all become members;
    * the CPU cannot sample at all (SiFive U74) -> raise.
    """
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    requested = list(events)
    if not requested:
        requested = [HwEvent.CYCLES, HwEvent.INSTRUCTIONS]

    if not cpu.sampling_possible:
        raise SamplingNotSupportedError(
            f"{cpu.core}: no counter can raise overflow interrupts; "
            "sampling-based profiling is not possible on this part"
        )

    directly_sampleable = [e for e in requested if e in cpu.direct_sampling_events]
    if directly_sampleable and not cpu.needs_group_leader_workaround:
        leader = directly_sampleable[0]
        members = [e for e in requested if e is not leader]
        return GroupPlan(
            leader_event=leader,
            member_events=members,
            sample_period=sample_period,
            used_workaround=False,
            cpu=cpu,
        )

    leader = cpu.workaround_leader_event
    if leader is None:
        raise SamplingNotSupportedError(
            f"{cpu.core}: requested events cannot be sampled and no workaround "
            "leader event is known"
        )
    members = [e for e in requested if e is not leader]
    return GroupPlan(
        leader_event=leader,
        member_events=members,
        sample_period=sample_period,
        used_workaround=True,
        cpu=cpu,
    )
