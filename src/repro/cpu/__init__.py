"""Microarchitectural substrate: core timing models, caches, branch prediction.

The paper evaluates on four pieces of silicon (SiFive U74, T-Head C910,
SpacemiT X60, Intel i5-1135G7).  We replace them with cycle-approximate
timing models that reproduce the *relative* behaviour the paper reports:
the IPC gap between an in-order RISC-V core and a wide out-of-order x86 core,
and the memory/compute roofs that bound the roofline plot.
"""

from repro.cpu.events import HwEvent, EventCounts, EventBus
from repro.cpu.cache import Cache, CacheConfig, CacheHierarchy, MemoryConfig, AccessResult
from repro.cpu.branch import BranchPredictor, GsharePredictor, AlwaysTakenPredictor
from repro.cpu.core import (
    CoreConfig,
    CoreTimingModel,
    InOrderCore,
    OutOfOrderCore,
)

__all__ = [
    "HwEvent",
    "EventCounts",
    "EventBus",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "MemoryConfig",
    "AccessResult",
    "BranchPredictor",
    "GsharePredictor",
    "AlwaysTakenPredictor",
    "CoreConfig",
    "CoreTimingModel",
    "InOrderCore",
    "OutOfOrderCore",
]
