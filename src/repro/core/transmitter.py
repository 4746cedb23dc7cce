"""Cycle-accurate DESC transmitter (Section 3.2.1, Figures 5/6/11).

The transmitter owns one FIFO queue of rounds (filled by
:meth:`DescTransmitter.load_block`), a free-running counter, and the
toggle generators of the whole wire bank.  The generators are one
``uint8`` level array — index 0 is the shared reset/skip wire, then one
entry per data wire — plus integer flip counters, so a clock cycle is a
single vector operation whatever the wire count: every data wire whose
fire cycle equals the counter flips (``levels[1:] ^= fire == cycle``).
Calling :meth:`DescTransmitter.step` advances one clock cycle and
returns the levels currently driven on the wires.

The implementation matches ``repro.core.protocol`` exactly; the
receiver (`repro.core.receiver`) decodes using only the observed wire
levels and its own copy of the skip policy.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunking import ChunkLayout
from repro.core.protocol import fire_cycles
from repro.core.skipping import NoSkipping, SkipPolicy

__all__ = ["DescTransmitter"]


class DescTransmitter:
    """Drives a block onto the DESC wires, one round at a time."""

    def __init__(self, layout: ChunkLayout, policy: SkipPolicy | None = None) -> None:
        self._layout = layout
        self._policy = policy if policy is not None else NoSkipping()
        self._levels = np.zeros(1 + layout.num_wires, dtype=np.uint8)
        self._data_levels = self._levels[1:]  # a view: the data wires
        self._data_flips = 0
        self._overhead_flips = 0
        self._pending_rounds: list[np.ndarray] = []
        self._fire_cycles: np.ndarray | None = None
        self._any_skipped = False
        self._cycle_in_round = -1
        self._close_cycle: int | None = None
        self._round_values = np.zeros(layout.num_wires, dtype=np.int64)

    @property
    def layout(self) -> ChunkLayout:
        """Chunk/wire geometry this transmitter drives."""
        return self._layout

    @property
    def policy(self) -> SkipPolicy:
        """The transmitter-side skip policy instance."""
        return self._policy

    @property
    def busy(self) -> bool:
        """Whether a block transfer is still in flight."""
        return bool(self._pending_rounds) or self._fire_cycles is not None

    @property
    def data_flips(self) -> int:
        """Total transitions driven on the data wires so far."""
        return self._data_flips

    @property
    def overhead_flips(self) -> int:
        """Total transitions driven on the reset/skip wire so far."""
        return self._overhead_flips

    def wire_levels(self) -> np.ndarray:
        """Current levels (a copy): index 0 is the reset/skip wire, then data wires."""
        return self._levels.copy()

    def load_block(self, chunks: np.ndarray) -> None:
        """Queue a block (chunk-value array) for transmission.

        Raises ``RuntimeError`` if a transfer is already in flight — the
        cache controller must wait for the ready signal (``not busy``).
        """
        if self.busy:
            raise RuntimeError("transmitter is busy; wait for the ready signal")
        schedule = self._layout.schedule(np.asarray(chunks, dtype=np.int64))
        self._pending_rounds = list(schedule)

    def step(self) -> np.ndarray:
        """Advance one clock cycle; return the driven wire levels.

        An idle transmitter holds its levels (no transitions).
        """
        if self._fire_cycles is None:
            if self._pending_rounds:
                self._begin_round(self._pending_rounds.pop(0))
            return self.wire_levels()

        self._cycle_in_round += 1
        self._fire(self._cycle_in_round)
        if self._close_cycle is not None and self._cycle_in_round >= self._close_cycle:
            if self._any_skipped:
                self._pulse_reset()  # closing skip toggle
            self._finish_round()
        return self.wire_levels()

    def _pulse_reset(self) -> None:
        self._levels[0] ^= 1
        self._overhead_flips += 1

    def _fire(self, cycle: int) -> None:
        """Toggle every data wire whose chunk fires on ``cycle``."""
        assert self._fire_cycles is not None
        fired = self._fire_cycles == cycle
        self._data_levels ^= fired
        self._data_flips += int(np.count_nonzero(fired))

    def _begin_round(self, values: np.ndarray) -> None:
        """Cycle 0 of a round: toggle reset/skip, compute fire cycles."""
        self._pulse_reset()
        self._cycle_in_round = 0
        fire = fire_cycles(values, self._policy.skip_values())
        self._any_skipped = bool((fire < 0).any())
        last_fire = int(fire.max())  # -1 when every chunk was skipped
        if self._any_skipped:
            self._close_cycle = max(last_fire, 0) + 1
        else:
            self._close_cycle = last_fire  # round ends with the final data toggle
        self._round_values = values
        self._fire_cycles = fire
        # A chunk may fire on cycle 0 itself (value 0 under basic DESC).
        self._fire(0)
        if self._close_cycle == 0:
            self._finish_round()

    def _finish_round(self) -> None:
        """Commit the round's history and arm the next round (next cycle)."""
        self._policy.observe_round(self._round_values)
        self._fire_cycles = None
        self._close_cycle = None
        self._cycle_in_round = -1
