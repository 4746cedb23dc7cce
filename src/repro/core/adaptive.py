"""Adaptive (frequency-elected) value skipping — the paper's §3.3 aside.

Section 3.3: *"We also considered adaptive techniques for detecting and
encoding frequent non-zero chunks at runtime; however, the attainable
delay and energy improvements are not appreciable.  This is because of
the relatively uniform distribution of chunk values other than zero."*

This module implements the technique the authors dismissed, so the
claim can be checked quantitatively (see
``benchmarks/test_ablation_adaptive.py``): each wire counts the values
it delivers; every ``window`` delivered chunks it re-elects its skip
value as the most frequent one seen in that window (ties resolve to the
smallest value).  Both endpoints observe the same delivered values, so
transmitter and receiver re-elect identically with no side channel —
the same property last-value skipping relies on.

Two implementations, property-tested to agree:

* :class:`AdaptiveSkipping` — a :class:`~repro.core.skipping.SkipPolicy`
  for the cycle-accurate link;
* :class:`AdaptiveDescCostModel` — the closed-form model, a
  :class:`~repro.core.analysis.DescCostModel` whose fire schedule is
  computed window by window.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.core.skipping import SkipPolicy
from repro.util.validation import require_positive

__all__ = ["AdaptiveSkipping", "AdaptiveDescCostModel"]


class AdaptiveSkipping(SkipPolicy):
    """Per-wire skip value re-elected from delivered-value frequencies."""

    name = "adaptive"

    def __init__(self, num_wires: int, chunk_bits: int = 4, window: int = 16) -> None:
        require_positive("num_wires", num_wires)
        require_positive("chunk_bits", chunk_bits)
        require_positive("window", window)
        self._num_wires = num_wires
        self._num_values = 1 << chunk_bits
        self._window = window
        self._skip = np.zeros(num_wires, dtype=np.int64)
        self._counts = np.zeros((num_wires, self._num_values), dtype=np.int64)
        self._observed = np.zeros(num_wires, dtype=np.int64)

    @property
    def window(self) -> int:
        """Delivered chunks per wire between elections."""
        return self._window

    def skip_values(self) -> np.ndarray | None:
        return self._skip.copy()

    def observe_round(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        wires = (
            np.arange(self._num_wires) if keep is None else np.flatnonzero(keep)
        )
        self._counts[wires, np.asarray(values)[wires]] += 1
        self._observed[wires] += 1
        full = self._observed == self._window
        if full.any():
            # Most frequent value of the window; argmax breaks ties low.
            self._skip[full] = np.argmax(self._counts[full], axis=1)
            self._counts[full] = 0
            self._observed[full] = 0

    def reset(self) -> None:
        self._skip[:] = 0
        self._counts[:] = 0
        self._observed[:] = 0

    def clone(self) -> "AdaptiveSkipping":
        bits = int(np.log2(self._num_values))
        return AdaptiveSkipping(self._num_wires, bits, self._window)


class AdaptiveDescCostModel(DescCostModel):
    """Closed-form costs under adaptive skipping.

    The fire schedule is computed in windows of ``window`` global
    rounds: within a window every wire's skip value is fixed (elected
    from the previous window's value histogram), so each window
    vectorizes; only the election loop is sequential, at one iteration
    per window.
    """

    POLICY_NAMES = ("adaptive",)

    def __init__(self, layout: ChunkLayout | None = None, window: int = 16) -> None:
        super().__init__(layout, skip_policy="adaptive")
        require_positive("window", window)
        self._window = window
        num_values = 1 << self.layout.chunk_bits
        self._skip = np.zeros(self.layout.num_wires, dtype=np.int64)
        self._counts = np.zeros((self.layout.num_wires, num_values), dtype=np.int64)
        self._observed = 0  # rounds into the current window (uniform per wire)

    @property
    def window(self) -> int:
        """Delivered chunks per wire between elections."""
        return self._window

    def reset(self) -> None:
        super().reset()
        self._skip[:] = 0
        self._counts[:] = 0
        self._observed = 0

    def _fire_schedule(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_rounds, wires = values.shape
        skipped = np.empty(values.shape, dtype=bool)
        fire = np.empty(values.shape, dtype=np.int64)
        start = 0
        while start < num_rounds:
            take = min(self._window - self._observed, num_rounds - start)
            part = values[start:start + take]
            skip = self._skip[None, :]
            skipped[start:start + take] = part == skip
            fire[start:start + take] = part + (part < skip)
            # Histogram the delivered values (every chunk is delivered,
            # transmitted or skipped) for the running election window.
            np.add.at(
                self._counts,
                (np.tile(np.arange(wires), take), part.reshape(-1)),
                1,
            )
            self._observed += take
            if self._observed == self._window:
                self._skip = np.argmax(self._counts, axis=1).astype(np.int64)
                self._counts[:] = 0
                self._observed = 0
            start += take
        return skipped, fire
