"""Cycle-accurate DESC receiver (Section 3.2.2).

The receiver mirrors the transmitter: an internal counter restarted by
each reset toggle, a toggle detector per wire, and a copy of the skip
policy.  It reconstructs chunk values *purely* from the observed wire
levels — it never peeks at the transmitter's queues — which is what the
round-trip property tests rely on.

The detectors of the whole wire bank are one integer mask of the last
sampled levels (:mod:`repro.core.masks`: bit 0 is the reset/skip wire,
bit ``1 + i`` data wire ``i``), so a cycle computes every edge at once
(``edges = levels ^ last``).  The pending chunks are a mask too, and a
cycle's data toggles latch as one ``(cycle, mask)`` pair: the counter
reads the same on every wire within a cycle.  The values are decoded
once per round, when the round closes, with one
``protocol.decode_cycles`` call over the whole bank.
:meth:`DescReceiver.step_mask` and :meth:`DescReceiver.resync_mask`
take the levels as a mask; :meth:`DescReceiver.step` and
:meth:`DescReceiver.resync` validate a ``uint8`` level array (index 0
is the reset/skip wire) and convert it.

A toggle on the shared reset/skip wire is handled first, as the paper
specifies: a counter reset (start of a round) when no chunk is pending,
or a skip command (assign the skip value to all silent wires) when some
chunk receivers are still waiting.

Fault tolerance
---------------
In the default **strict** mode any protocol violation raises — the
right behavior for a fault-free link, where a violation is a bug.  A
link carrying a fault injector constructs the receiver with
``strict=False``, which turns violations into *detected corruption
events* instead:

* an unexpected data toggle (no round open, or the chunk already
  latched) is counted and ignored;
* a data toggle that decodes outside the chunk-value range (a drifted
  counter) marks the chunk corrupt;
* a **round-boundary watchdog** abandons any round that runs past the
  longest legal window, commits sentinel values for the still-pending
  chunks (keeping block framing intact), and flags the receiver as
  *desynchronized* until the link drives a resync strobe.

Sentinel value: a chunk the receiver knows it lost is committed as
``-1``, so downstream consumers can separate detected losses from
silently wrong values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import ChunkLayout
from repro.core.masks import mask_of, unpack_rows
from repro.core.protocol import decode_cycles
from repro.core.skipping import NoSkipping, SkipPolicy

__all__ = ["DescReceiver", "ReceiverFaultEvents", "CORRUPT_CHUNK"]

#: Sentinel chunk value for a detected (not silent) loss.
CORRUPT_CHUNK = -1


@dataclass
class ReceiverFaultEvents:
    """Counters of the anomalies a non-strict receiver has absorbed.

    Attributes:
        spurious_toggles: Data toggles with no chunk pending.
        out_of_range_decodes: Toggles decoding past the chunk range.
        watchdog_aborts: Rounds abandoned by the round-boundary watchdog.
        resyncs: Resync strobes consumed.
    """

    spurious_toggles: int = 0
    out_of_range_decodes: int = 0
    watchdog_aborts: int = 0
    resyncs: int = 0

    @property
    def detected(self) -> int:
        """All anomalies the receiver itself noticed."""
        return (
            self.spurious_toggles + self.out_of_range_decodes
            + self.watchdog_aborts
        )


class DescReceiver:
    """Recovers blocks from DESC wire activity, one round at a time."""

    def __init__(
        self,
        layout: ChunkLayout,
        policy: SkipPolicy | None = None,
        strict: bool = True,
    ) -> None:
        self._layout = layout
        self._policy = policy if policy is not None else NoSkipping()
        self._strict = strict
        self._lines = 1 + layout.num_wires
        # The toggle detectors of the whole bank: the last sampled
        # levels as a mask (bit 0 is the reset/skip wire).
        self._last_levels = 0
        self._in_round = False
        self._cycle_in_round = -1
        # Round state, all masks over the levels' bit positions: the
        # chunks still pending, the (cycle, wires) latches so far, and
        # the wires a skip command assigned the skip value.
        self._data_wires = (1 << self._lines) - 2
        self._pending = 0
        self._latches: list[tuple[int, int]] = []
        self._skip_fill = 0
        self._skip: np.ndarray | None = None
        self._completed_rounds: list[np.ndarray] = []
        self._desynced = False
        # A legal round's last event is the closing toggle one cycle
        # after a fire on max_chunk_value + 1 (skipping shifts fires up
        # by one); anything longer means the counters disagree.
        self._watchdog_limit = layout.max_chunk_value + 2
        #: Anomaly counters (only advance when ``strict=False``).
        self.fault_events = ReceiverFaultEvents()
        #: Blocks fully received, in arrival order (chunk-value arrays).
        self.received_blocks: list[np.ndarray] = []

    @property
    def layout(self) -> ChunkLayout:
        """Chunk/wire geometry this receiver expects."""
        return self._layout

    @property
    def policy(self) -> SkipPolicy:
        """The receiver-side skip policy instance."""
        return self._policy

    @property
    def in_round(self) -> bool:
        """Whether a round is currently being decoded."""
        return self._in_round

    @property
    def strict(self) -> bool:
        """Whether protocol violations raise (fault-free link) or count."""
        return self._strict

    @property
    def desynced(self) -> bool:
        """Whether the watchdog has declared the counters out of sync.

        Set by a watchdog abort; cleared by :meth:`resync` with
        ``abandon_partial=True`` (the link's recovery strobe).
        """
        return self._desynced

    def perturb_counter(self, delta: int) -> None:
        """Mislatch the round counter by ``delta`` (fault injection only).

        Models a single-event upset in the receiver's synchronized
        counter: every later toggle in the round decodes shifted.
        Outside a round the upset is harmless — the next reset toggle
        reloads the counter.
        """
        if self._in_round:
            self._cycle_in_round += delta

    def resync(self, levels: np.ndarray, abandon_partial: bool = False) -> None:
        """Re-arm all toggle detectors on the current wire levels.

        Used when a clock-gated receiver (an unselected subbank,
        Figure 7) is re-enabled: transitions that happened while it was
        gated must not surface as edges (Figure 8-b's delayed-input
        detector guarantees this in hardware).

        With ``abandon_partial=True`` this is the receiving half of the
        link's **recovery strobe**: in addition to re-arming the
        detectors, any partially decoded round *and* any completed
        rounds of a partially received block are discarded, and the
        desynchronized flag is cleared — the endpoints restart from a
        known-clean state.
        """
        self.resync_mask(mask_of(levels, self._lines), abandon_partial)

    def resync_mask(self, levels: int, abandon_partial: bool = False) -> None:
        """:meth:`resync` on levels given as a mask."""
        self._last_levels = levels
        if abandon_partial:
            self._in_round = False
            self._cycle_in_round = -1
            self._pending = 0
            self._completed_rounds.clear()
            self._desynced = False
            self.fault_events.resyncs += 1

    def step(self, levels: np.ndarray) -> None:
        """Consume one cycle of wire levels (reset/skip first, then data)."""
        self.step_mask(mask_of(levels, self._lines))

    def step_mask(self, levels: int) -> None:
        """Consume one cycle of wire levels given as a mask."""
        if self._in_round:
            self._cycle_in_round += 1
            if not self._strict and self._cycle_in_round > self._watchdog_limit:
                self._watchdog_abort()

        edges = levels ^ self._last_levels
        if not edges:
            return  # an open round always has a chunk pending
        self._last_levels = levels
        if edges & 1:
            if self._in_round and self._pending:
                self._apply_skip_command()
            else:
                self._begin_round()
            edges ^= 1
        if edges:
            self._latch(edges)
        if self._in_round and not self._pending:
            self._finish_round()

    def _latch(self, edges: int) -> None:
        """Latch this cycle's data toggles (``edges``, a mask).

        A toggle on a wire with a chunk pending latches the counter; any
        other toggle is unexpected.  The counter reads the same on every
        wire, so the cycle's toggles latch as one ``(cycle, wires)``
        pair, decoded when the round closes.
        """
        expected = edges & self._pending  # a pending chunk implies a round
        if expected != edges:
            unexpected = edges ^ expected
            if self._strict:
                wire = (unexpected & -unexpected).bit_length() - 2
                raise RuntimeError(
                    f"unexpected data toggle on wire {wire}: no chunk pending"
                )
            self.fault_events.spurious_toggles += unexpected.bit_count()
        if not expected:
            return
        cycle = self._cycle_in_round
        if self._skip is not None and cycle < 1:
            if self._strict:
                raise ValueError(
                    f"a skipping round cannot carry a data toggle on cycle {cycle}"
                )
            # A toggle on cycle 0 of a skipping round: physically a
            # spurious edge racing the reset toggle.  The chunk stays
            # at the sentinel.
            self.fault_events.spurious_toggles += expected.bit_count()
        elif not self._strict and not 0 <= cycle <= self._layout.max_chunk_value:
            # A drifted counter latched an impossible count.  Skip
            # values are always legal chunk values, so a toggle decodes
            # out of range exactly when the counter does.
            self.fault_events.out_of_range_decodes += expected.bit_count()
        else:
            self._latches.append((cycle, expected))
        self._pending ^= expected  # expected is a subset of pending

    def _watchdog_abort(self) -> None:
        """The round overran every legal window: the counters disagree.

        Commits the round with sentinel values for the pending chunks —
        keeping the rounds-per-block framing intact — and marks the
        receiver desynchronized until the link resyncs it.
        """
        self.fault_events.watchdog_aborts += 1
        self._desynced = True
        self._pending = 0
        self._finish_round()

    def _begin_round(self) -> None:
        """Reset toggle with nothing pending: a new round starts this cycle."""
        self._in_round = True
        self._cycle_in_round = 0
        self._pending = self._data_wires
        self._latches = []
        self._skip_fill = 0
        self._skip = self._policy.skip_values()

    def _apply_skip_command(self) -> None:
        """Reset/skip toggle with chunks pending: silent wires take the skip value."""
        if self._skip is None:
            if self._strict:
                raise RuntimeError(
                    "skip command received but the policy does not skip"
                )
            # A glitched strobe closed a basic-DESC round early: the
            # still-pending chunks are lost, but we saw it happen.
            self.fault_events.spurious_toggles += self._pending.bit_count()
        else:
            self._skip_fill = self._pending
        self._pending = 0
        # _finish_round runs from step() since pending is now empty — but
        # step() already passed the completion check when it called us, so
        # finish explicitly here.
        self._finish_round()

    def _round_values(self) -> np.ndarray:
        """Decode the round's latches: one value per wire.

        Wires the round lost (never latched, decoded out of range, or
        abandoned by the watchdog) read :data:`CORRUPT_CHUNK`.
        """
        values = np.full(self._layout.num_wires, CORRUPT_CHUNK, dtype=np.int64)
        if self._latches:
            cycles, masks = zip(*self._latches, strict=True)
            latch, wires = np.nonzero(unpack_rows(masks, self._lines)[:, 1:])
            skip = self._skip
            if skip is not None:
                skip = np.broadcast_to(skip, values.shape)[wires]
            values[wires] = decode_cycles(np.asarray(cycles)[latch], skip)
        if self._skip_fill:
            filled = unpack_rows([self._skip_fill], self._lines)[0, 1:]
            np.copyto(values, self._skip, where=filled)
        return values

    def _finish_round(self) -> None:
        """Commit the round; assemble the block once all rounds arrived."""
        if not self._in_round:
            return
        values = self._round_values()
        self._policy.observe_round(values, values != CORRUPT_CHUNK)
        self._completed_rounds.append(values)
        self._in_round = False
        self._cycle_in_round = -1
        if len(self._completed_rounds) == self._layout.num_rounds:
            schedule = np.stack(self._completed_rounds)
            self.received_blocks.append(self._layout.unschedule(schedule))
            self._completed_rounds = []
