"""Cycle-accurate DESC receiver (Section 3.2.2).

The receiver mirrors the transmitter: an internal counter restarted by
each reset toggle, a toggle detector per wire, and a copy of the skip
policy.  It reconstructs chunk values *purely* from the observed wire
levels — it never peeks at the transmitter's queues — which is what the
round-trip property tests rely on.

The detectors of the whole wire bank are one array of last sampled
levels (index 0 is the reset/skip wire), so a cycle computes every edge
at once (``edges = levels != last``).  Per-wire round state is two more
arrays: which chunks are still pending and the values latched so far.
The counter reads the same on every wire within a cycle, so all of a
cycle's data toggles decode in one vector operation.

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
        # The toggle detectors of the whole bank: the last sampled level
        # of every line (index 0 is the reset/skip wire).
        self._last_levels = np.zeros(1 + layout.num_wires, dtype=np.uint8)
        self._in_round = False
        self._cycle_in_round = -1
        self._pending: np.ndarray = np.zeros(layout.num_wires, dtype=bool)
        self._round_values = np.zeros(layout.num_wires, dtype=np.int64)
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
        self._last_levels = self._checked(levels)
        if abandon_partial:
            self._in_round = False
            self._cycle_in_round = -1
            self._pending[:] = False
            self._completed_rounds.clear()
            self._desynced = False
            self.fault_events.resyncs += 1

    def step(self, levels: np.ndarray) -> None:
        """Consume one cycle of wire levels (reset/skip first, then data)."""
        levels = self._checked(levels)
        if self._in_round:
            self._cycle_in_round += 1
            if not self._strict and self._cycle_in_round > self._watchdog_limit:
                self._watchdog_abort()

        edges = levels != self._last_levels
        self._last_levels = levels
        if edges[0]:
            # np.count_nonzero is the cheapest "any" on a small bool array.
            if self._in_round and np.count_nonzero(self._pending):
                self._apply_skip_command()
            else:
                self._begin_round()
        self._latch(edges[1:])
        if self._in_round and not np.count_nonzero(self._pending):
            self._finish_round()

    def _checked(self, levels: np.ndarray) -> np.ndarray:
        """The sampled levels as a fresh ``uint8`` array, validated."""
        if len(levels) != 1 + self._layout.num_wires:
            raise ValueError(
                f"expected {1 + self._layout.num_wires} wire levels, "
                f"got {len(levels)}"
            )
        levels = np.asarray(levels)
        bad = (levels != 0) & (levels != 1)
        if np.count_nonzero(bad):
            line = int(np.argmax(bad))
            raise ValueError(
                f"level must be 0 or 1, got {levels[line]} on line {line}"
            )
        return levels.astype(np.uint8)

    def _latch(self, edges: np.ndarray) -> None:
        """Decode this cycle's data toggles (``edges``, one per wire).

        A toggle on a wire with a chunk pending latches the counter; any
        other toggle is unexpected.  The counter reads the same on every
        wire, so the whole bank decodes at once.
        """
        toggles = int(np.count_nonzero(edges))
        if not toggles:
            return
        expected = edges & self._pending  # a pending chunk implies a round
        latching = int(np.count_nonzero(expected))
        if toggles > latching:
            if self._strict:
                wire = int(np.argmax(edges & ~self._pending))
                raise RuntimeError(
                    f"unexpected data toggle on wire {wire}: no chunk pending"
                )
            self.fault_events.spurious_toggles += toggles - latching
        if not latching:
            return
        try:
            values = decode_cycles(self._cycle_in_round, self._policy.skip_values())
        except ValueError:
            if self._strict:
                raise
            # A toggle on cycle 0 of a skipping round: physically a
            # spurious edge racing the reset toggle.
            self.fault_events.spurious_toggles += latching
            values = np.asarray(CORRUPT_CHUNK)
        else:
            if not self._strict:
                # A drifted counter latched an impossible count.
                impossible = (values < 0) | (values > self._layout.max_chunk_value)
                self.fault_events.out_of_range_decodes += int(
                    np.count_nonzero(impossible & expected)
                )
                values = np.where(impossible, CORRUPT_CHUNK, values)
        np.copyto(self._round_values, values, where=expected)
        self._pending ^= expected  # expected is a subset of pending

    def _watchdog_abort(self) -> None:
        """The round overran every legal window: the counters disagree.

        Commits the round with sentinel values for the pending chunks —
        keeping the rounds-per-block framing intact — and marks the
        receiver desynchronized until the link resyncs it.
        """
        self.fault_events.watchdog_aborts += 1
        self._desynced = True
        self._round_values[self._pending] = CORRUPT_CHUNK
        self._pending[:] = False
        self._finish_round()

    def _begin_round(self) -> None:
        """Reset toggle with nothing pending: a new round starts this cycle."""
        self._in_round = True
        self._cycle_in_round = 0
        self._pending[:] = True
        self._round_values[:] = -1

    def _apply_skip_command(self) -> None:
        """Reset/skip toggle with chunks pending: silent wires take the skip value."""
        skip = self._policy.skip_values()
        if skip is None:
            if self._strict:
                raise RuntimeError(
                    "skip command received but the policy does not skip"
                )
            # A glitched strobe closed a basic-DESC round early: the
            # still-pending chunks are lost, but we saw it happen.
            self.fault_events.spurious_toggles += int(
                np.count_nonzero(self._pending)
            )
            skip = np.asarray(CORRUPT_CHUNK)
        np.copyto(self._round_values, skip, where=self._pending)
        self._pending[:] = False
        # _finish_round runs from step() since pending is now empty — but
        # step() already passed the completion check when it called us, so
        # finish explicitly here.
        self._finish_round()

    def _finish_round(self) -> None:
        """Commit the round; assemble the block once all rounds arrived."""
        if not self._in_round:
            return
        self._policy.observe_round(
            self._round_values, self._round_values != CORRUPT_CHUNK
        )
        self._completed_rounds.append(self._round_values.copy())
        self._in_round = False
        self._cycle_in_round = -1
        if len(self._completed_rounds) == self._layout.num_rounds:
            schedule = np.stack(self._completed_rounds)
            self.received_blocks.append(self._layout.unschedule(schedule))
            self._completed_rounds = []
