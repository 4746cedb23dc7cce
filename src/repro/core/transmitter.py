"""Cycle-accurate DESC transmitter (Section 3.2.1, Figures 5/6/11).

The transmitter owns one FIFO queue of rounds (filled by
:meth:`DescTransmitter.load_block`), a free-running counter, and the
toggle generators of the whole wire bank.  The generators are one
integer level mask (:mod:`repro.core.masks`: bit 0 is the shared
reset/skip wire, bit ``1 + i`` data wire ``i``) plus integer flip
counters.  When a round opens, one NumPy pass turns the round's fire
cycles (``protocol.fire_cycles``) into one mask per cycle of the wires
that toggle on it, so a clock cycle is a single XOR whatever the wire
count: ``levels ^= fire_masks[cycle]``.

:meth:`DescTransmitter.step_mask` advances one clock cycle and returns
the driven levels as a mask; :meth:`DescTransmitter.step` and
:meth:`DescTransmitter.wire_levels` give the same levels as a ``uint8``
array (index 0 is the reset/skip wire).

The implementation matches ``repro.core.protocol`` exactly; the
receiver (`repro.core.receiver`) decodes using only the observed wire
levels and its own copy of the skip policy.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunking import ChunkLayout
from repro.core.masks import levels_of, pack_rows
from repro.core.protocol import fire_cycles
from repro.core.skipping import NoSkipping, SkipPolicy

__all__ = ["DescTransmitter"]


class DescTransmitter:
    """Drives a block onto the DESC wires, one round at a time."""

    def __init__(self, layout: ChunkLayout, policy: SkipPolicy | None = None) -> None:
        self._layout = layout
        self._policy = policy if policy is not None else NoSkipping()
        self._levels = 0
        self._data_flips = 0
        self._overhead_flips = 0
        self._pending_rounds: list[np.ndarray] = []
        # One mask per cycle of the open round (None between rounds).
        self._fire_masks: list[int] | None = None
        self._any_skipped = False
        self._cycle_in_round = -1
        self._close_cycle = -1
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
        return bool(self._pending_rounds) or self._fire_masks is not None

    @property
    def data_flips(self) -> int:
        """Total transitions driven on the data wires so far."""
        return self._data_flips

    @property
    def overhead_flips(self) -> int:
        """Total transitions driven on the reset/skip wire so far."""
        return self._overhead_flips

    @property
    def level_mask(self) -> int:
        """Current levels as a mask: bit 0 reset/skip, bit 1 + i data wire i."""
        return self._levels

    def wire_levels(self) -> np.ndarray:
        """Current levels (a copy): index 0 is the reset/skip wire, then data wires."""
        return levels_of(self._levels, 1 + self._layout.num_wires)

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
        """Advance one clock cycle; return the driven wire levels."""
        return levels_of(self.step_mask(), 1 + self._layout.num_wires)

    def step_mask(self) -> int:
        """Advance one clock cycle; return the driven levels as a mask.

        An idle transmitter holds its levels (no transitions).
        """
        fire_masks = self._fire_masks
        if fire_masks is None:
            if self._pending_rounds:
                self._begin_round(self._pending_rounds.pop(0))
            return self._levels

        cycle = self._cycle_in_round = self._cycle_in_round + 1
        fired = fire_masks[cycle]
        if fired:
            self._levels ^= fired
            self._data_flips += fired.bit_count()
        if cycle >= self._close_cycle:
            if self._any_skipped:
                self._pulse_reset()  # closing skip toggle
            self._finish_round()
        return self._levels

    def _pulse_reset(self) -> None:
        self._levels ^= 1
        self._overhead_flips += 1

    def _begin_round(self, values: np.ndarray) -> None:
        """Cycle 0 of a round: toggle reset/skip, build the fire masks."""
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
        # Row c marks the data wires that toggle on cycle c; column 0 is
        # the reset/skip wire, which the round drives itself.
        fired = np.zeros((self._close_cycle + 1, 1 + len(fire)), dtype=bool)
        fired[:, 1:] = fire == np.arange(self._close_cycle + 1)[:, None]
        self._fire_masks = pack_rows(fired)
        # A chunk may fire on cycle 0 itself (value 0 under basic DESC).
        first = self._fire_masks[0]
        self._levels ^= first
        self._data_flips += first.bit_count()
        if self._close_cycle == 0:
            self._finish_round()

    def _finish_round(self) -> None:
        """Commit the round's history and arm the next round (next cycle)."""
        self._policy.observe_round(self._round_values)
        self._fire_masks = None
        self._cycle_in_round = -1
