"""The branch predictor.

Branch mispredictions are one of the stall sources the in-order timing model
exposes directly, and ``branch-misses`` is one of the generic perf events the
PMU must be able to count.  Every platform model predicts with gshare
(McFarling, "Combining Branch Predictors", WRL TN-36, 1993): the global
branch history XOR the pc indexes a table of 2-bit saturating counters.

:meth:`GsharePredictor.update` is the per-op reference that
``CoreTimingModel.retire`` calls.  ``CoreTimingModel.retire_batch`` runs the
same update inline on the predictor's fields, so the two must change
together.
"""

from __future__ import annotations

from typing import Dict


class GsharePredictor:
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

    @property
    def miss_rate(self) -> float:
        total = self._predictions
        return self._mispredictions / total if total else 0.0
