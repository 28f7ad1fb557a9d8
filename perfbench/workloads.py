"""The benchmark's workloads and the output check they share.

Each workload is one ``Session.run`` call on the SpacemiT X60 model, built
from the public API the way a user's ``repro record`` / ``repro stat`` /
``repro roofline`` command builds it.  The seed given on the benchmark's
command line becomes ``ProfileSpec.seed``.  Only the synthetic trace of
``sqlite-record-x60`` depends on it; the kernel workloads take their inputs
from the registry, so every seed gives them the same output.

This module imports ``repro`` lazily, so ``run.py`` can read the
workload names without the package being importable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PLATFORM = "x60"

#: Paper reference values (Batashev, "Dissecting RISC-V Performance",
#: Table 2): share of samples of the three top sqlite3 hotspots on the
#: SpacemiT X60, in percent, and the X60's overall IPC on the benchmark.
PAPER_TABLE2_X60 = (
    ("sqlite3VdbeExec", 18.44),
    ("patternCompare", 11.63),
    ("sqlite3BtreeParseCellPtr", 10.17),
)
PAPER_X60_IPC = 0.86

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected_digests.json")


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    registry_name: str
    params: Dict[str, int] = field(default_factory=dict)
    #: Which ``ProfileSpec`` derivation to apply: ``record`` (default
    #: sampling spec), ``roofline`` or ``smp``.
    mode: str = "record"
    sample_period: int = 20_000
    cpus: int = 1
    #: Whether the output depends on the seed (synthetic traces only).
    seeded: bool = False

    def spec(self, seed: int):
        from repro.api import ProfileSpec
        spec = ProfileSpec(seed=seed, sample_period=self.sample_period)
        if self.mode == "roofline":
            return spec.counting().with_roofline()
        if self.mode == "smp":
            return spec.counting().with_cpus(self.cpus)
        return spec

    def create(self):
        from repro.workloads import registry
        return registry.create(self.registry_name, **self.params)


WORKLOADS: Dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload("sqlite-record-x60", "sqlite3-like", {"scale": 1},
                  mode="record", sample_period=6000, seeded=True),
    BenchWorkload("matmul-roofline-x60", "matmul-tiled", {"n": 24},
                  mode="roofline"),
    BenchWorkload("triad-mt-x60", "stream-triad-mt", {},
                  mode="smp", cpus=4),
)}


def kernel_sources(workload, spec) -> List[Tuple[str, str]]:
    """The ``(source, filename)`` pairs a workload compiles, deduplicated.

    Parallel workloads describe their per-thread kernels through
    ``shard_plans``; single kernels carry ``source``/``filename``; synthetic
    traces compile nothing.
    """
    if hasattr(workload, "shard_plans"):
        pairs = [(plan.source, plan.filename)
                 for plan in workload.shard_plans(spec.cpus, spec)]
    elif hasattr(workload, "source"):
        pairs = [(workload.source, workload.filename)]
    else:
        pairs = []
    return sorted(set(pairs))


def run_digest(run) -> str:
    """sha256 of a run's deterministic export, without its spec.

    The spec is the input (it carries the seed and the fast-path flags);
    everything else -- counters, samples, hotspots, flame graphs, roofline
    points, schedules -- is output.
    """
    payload = {key: value for key, value in run.deterministic_dict().items()
               if key != "spec"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def expected_digest(workload: BenchWorkload, seed: int) -> Optional[str]:
    """The committed digest for *workload* at *seed*, or None if absent.

    A seed-independent workload has one digest for every seed.
    """
    entries = load_digests().get(workload.name, {})
    if str(seed) in entries:
        return entries[str(seed)]
    if not workload.seeded and entries:
        return next(iter(entries.values()))
    return None
