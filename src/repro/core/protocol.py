"""The DESC wire protocol: exact timing and flip-count rules.

This module is the single place where the cycle-level rules of Section 3
are pinned down.  Both the cycle-accurate link (`repro.core.transmitter`
/ `repro.core.receiver`) and the closed-form cost model
(`repro.core.analysis`) implement these rules, and property tests assert
they agree.

Terminology
-----------
A 512-bit block is sent as ``num_rounds`` *rounds*; each round moves one
chunk per data wire (Figure 4).  A round is a *time window* (Figure 10)
bounded by toggles of the shared reset/skip wire.

Timing rules
------------
Let ``s`` be the wire's skip value for the round (``None`` for basic
DESC) and ``v`` the chunk value.  Cycle 0 of a round is the cycle on
which the reset/skip wire toggles; the synchronized counters read 0 on
that cycle and increment every cycle.

* **Basic DESC** — every chunk fires: wire toggles on cycle ``v``
  (so value 2 occupies cycles 0..2, "three cycles", Figure 5).  The
  round lasts ``max(v) + 1`` cycles and the next round's reset toggle
  follows on the next cycle.
* **Value skipping** — a chunk with ``v == s`` stays silent.  The count
  list excludes the skip value, so an unskipped chunk fires on cycle
  ``fire(v, s) = v + 1 if v < s else v`` (for zero skipping this is
  simply cycle ``v``, ``v >= 1``).  If any chunk was skipped the round is
  closed by a second toggle of the reset/skip wire one cycle after the
  last data toggle (cycle 1 if everything was skipped); silent wires
  then take the skip value.  If nothing was skipped no closing toggle is
  needed — the receiver saw all chunks arrive.

Flip counts per block
---------------------
* data wires: one per unskipped chunk;
* reset/skip wire: one per round, plus one per round that skipped
  anything;
* synchronization strobe: toggles at half the clock frequency while the
  transfer is in flight, i.e. ``ceil(total_cycles / 2)`` flips.

Receiver interpretation of a reset/skip toggle (Section 3.3): a counter
reset (new round) if no chunk is pending, otherwise a skip command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "fire_cycle",
    "fire_cycles",
    "decode_cycle",
    "decode_cycles",
    "round_duration",
    "TransferCost",
]


def fire_cycle(value: int, skip_value: int | None) -> int | None:
    """Cycle (within the round) on which a chunk toggles its wire.

    Returns ``None`` when the chunk is skipped (``value == skip_value``).
    """
    if skip_value is None:
        return value
    if value == skip_value:
        return None
    return value + 1 if value < skip_value else value


def decode_cycle(cycle: int, skip_value: int | None) -> int:
    """Chunk value recovered from a data toggle seen on ``cycle``.

    Inverse of :func:`fire_cycle` for unskipped chunks.
    """
    if skip_value is None:
        return cycle
    if cycle < 1:
        raise ValueError(
            f"a skipping round cannot carry a data toggle on cycle {cycle}"
        )
    value = cycle - 1 if cycle - 1 < skip_value else cycle
    return value


def fire_cycles(values: np.ndarray, skip_values: np.ndarray | None) -> np.ndarray:
    """:func:`fire_cycle` over a whole wire bank; ``-1`` marks a skip.

    ``skip_values`` broadcasts against ``values`` (one entry per wire,
    or a 0-d array shared by every wire); ``None`` means no skipping.
    """
    values = np.asarray(values, dtype=np.int64)
    if skip_values is None:
        return values.copy()
    fire = values + (values < skip_values)
    fire[values == skip_values] = -1
    return fire


def decode_cycles(
    cycles: int | np.ndarray, skip_values: np.ndarray | None
) -> np.ndarray:
    """:func:`decode_cycle` for toggles seen on many wires.

    ``cycles`` is one counter value shared by every wire or one per
    toggle, and broadcasts against ``skip_values`` (one entry per wire,
    or a 0-d array shared by every wire); ``None`` means no skipping.
    """
    cycles = np.asarray(cycles, dtype=np.int64)
    if skip_values is None:
        return cycles.copy()
    if cycles.size and cycles.min() < 1:
        raise ValueError(
            "a skipping round cannot carry a data toggle on cycle "
            f"{cycles.min()}"
        )
    return np.where(cycles - 1 < skip_values, cycles - 1, cycles)


def round_duration(last_fire_cycle: int | None, any_skipped: bool) -> int:
    """Number of cycles a round occupies, including its reset cycle.

    ``last_fire_cycle`` is the latest data-toggle cycle in the round, or
    ``None`` if every chunk was skipped.
    """
    if last_fire_cycle is None:
        if not any_skipped:
            raise ValueError("a round with no fires must have skipped chunks")
        return 2  # reset toggle on cycle 0, closing skip toggle on cycle 1
    if any_skipped:
        return last_fire_cycle + 2  # closing toggle follows the last fire
    return last_fire_cycle + 1


@dataclass(frozen=True)
class TransferCost:
    """Wire activity and latency of one or more block transfers.

    Attributes:
        data_flips: Transitions on the data wires.
        overhead_flips: Transitions on the shared reset/skip wire.
        sync_flips: Transitions on the synchronization strobe.
        cycles: Total transfer latency in clock cycles.
    """

    data_flips: int
    overhead_flips: int
    sync_flips: int
    cycles: int

    @classmethod
    def zero(cls) -> "TransferCost":
        """The additive identity: no flips, no cycles.

        The canonical starting value for cost accumulators (cache
        controllers, data paths) — use this instead of spelling out
        ``TransferCost(0, 0, 0, 0)``.
        """
        return cls(data_flips=0, overhead_flips=0, sync_flips=0, cycles=0)

    @property
    def total_flips(self) -> int:
        """All wire transitions charged to the transfer."""
        return self.data_flips + self.overhead_flips + self.sync_flips

    def __add__(self, other: "TransferCost") -> "TransferCost":
        return TransferCost(
            data_flips=self.data_flips + other.data_flips,
            overhead_flips=self.overhead_flips + other.overhead_flips,
            sync_flips=self.sync_flips + other.sync_flips,
            cycles=self.cycles + other.cycles,
        )
