"""Branch predictors.

Branch mispredictions are one of the stall sources the in-order timing model
exposes directly, and ``branch-misses`` is one of the generic perf events the
PMU must be able to count.  Two predictors are provided: a gshare-style
history predictor (used by the real platform models) and an always-taken
predictor (useful as a pessimistic baseline in ablations).
"""

from __future__ import annotations

from typing import Dict


class BranchPredictor:
    """Interface: update with each real outcome, which reports the miss."""

    def update(self, pc: int, target: int, taken: bool) -> bool:
        """Record the outcome; return True when the prediction was wrong."""
        raise NotImplementedError

    @property
    def mispredictions(self) -> int:
        raise NotImplementedError

    @property
    def predictions(self) -> int:
        raise NotImplementedError

    @property
    def miss_rate(self) -> float:
        total = self.predictions
        return self.mispredictions / total if total else 0.0


class GsharePredictor(BranchPredictor):
    """A gshare predictor: global history XOR PC indexes a table of 2-bit counters."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12):
        if table_bits <= 0 or table_bits > 24:
            raise ValueError("table_bits must be in (0, 24]")
        self._table_size = 1 << table_bits
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._counters: Dict[int, int] = {}
        self._predictions = 0
        self._mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self._table_size

    def update(self, pc: int, target: int, taken: bool) -> bool:
        index = self._index(pc)
        counter = self._counters.get(index, 2)
        predicted = counter >= 2
        mispredicted = predicted != taken
        self._predictions += 1
        if mispredicted:
            self._mispredictions += 1
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[index] = counter
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return mispredicted

    @property
    def mispredictions(self) -> int:
        return self._mispredictions

    @property
    def predictions(self) -> int:
        return self._predictions


class AlwaysTakenPredictor(BranchPredictor):
    """Predicts every branch taken; a floor for ablation studies."""

    def __init__(self) -> None:
        self._predictions = 0
        self._mispredictions = 0

    def update(self, pc: int, target: int, taken: bool) -> bool:
        self._predictions += 1
        mispredicted = not taken
        if mispredicted:
            self._mispredictions += 1
        return mispredicted

    @property
    def mispredictions(self) -> int:
        return self._mispredictions

    @property
    def predictions(self) -> int:
        return self._predictions
