"""A complete DESC link: transmitter, delayed wires, receiver, sync strobe.

:class:`DescLink` wires a :class:`~repro.core.transmitter.DescTransmitter`
to a :class:`~repro.core.receiver.DescReceiver` through a fixed-delay
pipe that models the equalized propagation delay of the cache H-tree
(Section 3.2.2: "Because of the equalized transmission delay of the
wires … the content of the DESC receiver counter at the time the strobe
is received is always the same as the content of the transmitter counter
at the time the strobe is transmitted").

The link also drives the synchronization strobe — a wire that toggles at
half the clock frequency while a transfer is in flight (Section 3.1) —
and accounts for its transitions, as the paper does.

Fault injection and recovery
----------------------------
A link built with a fault ``injector`` (see :mod:`repro.faults`)
perturbs the *delivered* wire levels every cycle and runs its receiver
in non-strict mode: protocol violations become detected-corruption
events instead of exceptions.  Two recovery mechanisms then keep the
endpoints usable:

* a **periodic resync strobe** (``resync_interval`` blocks): the link
  stalls, flushes the wire pipe, re-arms every receiver toggle detector
  on the delivered levels, discards partial receive state, and resets
  both endpoints' skip-policy history to the power-up state.  The
  strobe's wire activity and stall cycles are charged to the link's
  :class:`~repro.core.protocol.TransferCost` (``resync_flips`` /
  ``resync_cycles``), so fault campaigns can price recovery in energy.
* a **block watchdog** in :meth:`send_block`: when a transfer fails to
  assemble within the protocol bound (lost toggles leave chunks pending
  forever), the block is declared lost — a *detected* failure — and a
  forced resync restores synchronization before the next block.

With no injector and no resync interval the link is byte-identical to
the fault-free implementation: the strict receiver raises on any
violation and every new accounting field stays zero.

This is the reference ("layer 1") implementation; the closed-form model
in :mod:`repro.core.analysis` is property-tested against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chunking import ChunkLayout
from repro.core.protocol import TransferCost
from repro.core.receiver import DescReceiver, ReceiverFaultEvents
from repro.core.skipping import SkipPolicy, make_policy
from repro.core.transmitter import DescTransmitter

if TYPE_CHECKING:  # pragma: no cover - types only (core must not need faults)
    from repro.faults.injector import LinkFaultInjector

__all__ = ["DescLink", "LinkFaultReport"]

#: Wire activity of one resync strobe: the dedicated strobe pulses once
#: (up and back down) so a re-enabled receiver sees a clean edge pair.
RESYNC_STROBE_FLIPS = 2
#: Stall cycles of the strobe itself (the pipe flush adds wire_delay).
RESYNC_PULSE_CYCLES = 2


@dataclass(frozen=True)
class LinkFaultReport:
    """Fault/recovery accounting of one link's lifetime.

    Attributes:
        blocks_sent: Blocks loaded into the transmitter.
        blocks_delivered: Blocks the receiver fully assembled.
        blocks_lost: Transfers abandoned by the block watchdog.
        resyncs: Resync strobes driven (periodic + forced).
        resync_flips: Wire transitions charged to resync strobes.
        resync_cycles: Stall cycles charged to resync strobes.
        recovery_latencies: Cycles from each detected desynchronization
            to the resync that cleared it.
        receiver_events: The receiver's anomaly counters.
    """

    blocks_sent: int
    blocks_delivered: int
    blocks_lost: int
    resyncs: int
    resync_flips: int
    resync_cycles: int
    recovery_latencies: tuple[int, ...] = ()
    receiver_events: ReceiverFaultEvents = field(
        default_factory=ReceiverFaultEvents
    )

    @property
    def mean_recovery_latency(self) -> float:
        """Mean detection-to-resync latency in cycles (0 when none)."""
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)


class DescLink:
    """Synchronous point-to-point DESC channel with a wire delay."""

    def __init__(
        self,
        layout: ChunkLayout | None = None,
        skip_policy: str | SkipPolicy = "none",
        wire_delay: int = 0,
        injector: "LinkFaultInjector | None" = None,
        resync_interval: int | None = None,
    ) -> None:
        if wire_delay < 0:
            raise ValueError(f"wire_delay must be non-negative, got {wire_delay}")
        if resync_interval is not None and resync_interval < 1:
            raise ValueError(
                f"resync_interval must be >= 1, got {resync_interval}"
            )
        self._layout = layout if layout is not None else ChunkLayout()
        if isinstance(skip_policy, SkipPolicy):
            # Each endpoint gets its own fresh copy; the protocol keeps
            # them coherent by observing the same delivered values.
            self._tx_policy: SkipPolicy = skip_policy.clone()
            self._rx_policy: SkipPolicy = skip_policy.clone()
        else:
            self._tx_policy = make_policy(skip_policy, self._layout.num_wires)
            self._rx_policy = make_policy(skip_policy, self._layout.num_wires)
        self._injector = injector
        self._resync_interval = resync_interval
        self.transmitter = DescTransmitter(self._layout, self._tx_policy)
        self.receiver = DescReceiver(
            self._layout, self._rx_policy, strict=injector is None
        )
        self._wire_delay = wire_delay
        # The wires in flight, as level masks (see repro.core.masks).
        self._pipe: deque[int] = deque(
            [self.transmitter.level_mask] * wire_delay
        )
        self._sync_level = 0
        self._sync_flips = 0
        self._cycles = 0
        self._busy_cycles = 0
        self._blocks_sent = 0
        self._blocks_lost = 0
        self._resyncs = 0
        self._resync_flips = 0
        self._resync_cycles = 0
        self._desync_seen_at: int | None = None
        self._recovery_latencies: list[int] = []

    @property
    def layout(self) -> ChunkLayout:
        """Chunk/wire geometry of the link."""
        return self._layout

    @property
    def wire_delay(self) -> int:
        """Propagation delay, in cycles, applied equally to every wire."""
        return self._wire_delay

    @property
    def cycles(self) -> int:
        """Total cycles stepped since construction."""
        return self._cycles

    @property
    def busy_cycles(self) -> int:
        """Cycles during which a transfer was in flight at the transmitter."""
        return self._busy_cycles

    @property
    def sync_flips(self) -> int:
        """Transitions driven on the synchronization strobe."""
        return self._sync_flips

    @property
    def injector(self) -> "LinkFaultInjector | None":
        """The attached fault injector, if any."""
        return self._injector

    @property
    def resync_interval(self) -> int | None:
        """Blocks between periodic resync strobes (``None`` = never)."""
        return self._resync_interval

    @property
    def resyncs(self) -> int:
        """Resync strobes driven so far (periodic + forced)."""
        return self._resyncs

    def cost_so_far(self) -> TransferCost:
        """Aggregate wire activity since construction.

        Resync strobes are charged here too: their pulse flips ride the
        synchronization strobe and their stall cycles extend the busy
        time, exactly how a controller would account them.
        """
        return TransferCost(
            data_flips=self.transmitter.data_flips,
            overhead_flips=self.transmitter.overhead_flips,
            sync_flips=self._sync_flips + self._resync_flips,
            cycles=self._busy_cycles + self._resync_cycles,
        )

    def fault_report(self) -> LinkFaultReport:
        """Fault and recovery accounting for the link's lifetime."""
        return LinkFaultReport(
            blocks_sent=self._blocks_sent,
            blocks_delivered=len(self.receiver.received_blocks),
            blocks_lost=self._blocks_lost,
            resyncs=self._resyncs,
            resync_flips=self._resync_flips,
            resync_cycles=self._resync_cycles,
            recovery_latencies=tuple(self._recovery_latencies),
            receiver_events=self.receiver.fault_events,
        )

    def step(self) -> None:
        """Advance the whole link by one clock cycle."""
        busy_before = self.transmitter.busy
        levels = self.transmitter.step_mask()
        if busy_before:
            self._busy_cycles += 1
            # The sync strobe toggles at half the clock rate while a
            # transfer is in flight (one flip per two busy cycles).
            if self._busy_cycles % 2 == 1:
                self._sync_level ^= 1
                self._sync_flips += 1
        self._pipe.append(levels)
        delayed = self._pipe.popleft()
        if self._injector is not None:
            delayed = self._injector.perturb(delayed)
            drift = self._injector.take_desync()
            if drift:
                self.receiver.perturb_counter(drift)
        self.receiver.step_mask(delayed)
        if (
            self._injector is not None
            and self.receiver.desynced
            and self._desync_seen_at is None
        ):
            self._desync_seen_at = self._cycles
        self._cycles += 1

    def resync(self) -> None:
        """Drive a resynchronization strobe through the idle link.

        The recovery protocol's atom: (1) the link stalls and flushes
        the wire pipe so in-flight transitions land, (2) every receiver
        toggle detector is re-armed on the levels actually delivered
        (missed or phantom transitions stop mattering), partial receive
        state is discarded, and the desynchronized flag clears, (3) both
        endpoints reset their skip-policy history to the power-up state,
        restoring value agreement for every subsequent round.

        Cost: ``RESYNC_STROBE_FLIPS`` strobe transitions plus
        ``wire_delay + RESYNC_PULSE_CYCLES`` stall cycles, charged to
        :meth:`cost_so_far`.
        """
        if self.transmitter.busy:
            raise RuntimeError("cannot resync while a transfer is in flight")
        # Flush the pipe: the transmitter idles (levels hold, no flips),
        # so after wire_delay cycles the receiver has seen every
        # transition that was still in flight.
        for _ in range(self._wire_delay):
            self.step()
        levels = self.transmitter.level_mask
        delivered = (
            self._injector.deliver(levels)
            if self._injector is not None
            else levels
        )
        self.receiver.resync_mask(delivered, abandon_partial=True)
        self._tx_policy.reset()
        self._rx_policy.reset()
        self._resyncs += 1
        self._resync_flips += RESYNC_STROBE_FLIPS
        self._resync_cycles += self._wire_delay + RESYNC_PULSE_CYCLES
        if self._desync_seen_at is not None:
            self._recovery_latencies.append(self._cycles - self._desync_seen_at)
            self._desync_seen_at = None

    def send_block(self, chunks: np.ndarray, max_cycles: int | None = None) -> TransferCost:
        """Transfer one block and return its wire activity and latency.

        Runs the clock until the receiver has assembled the block; the
        returned ``cycles`` is the transmitter-side occupancy (excluding
        the fixed wire delay, which is the same for every scheme).

        On a fault-free link an incomplete transfer raises.  With a
        fault injector attached the block watchdog fires instead: the
        block counts as *lost* (a detected failure), a forced resync
        restores synchronization, and the cost of both is returned.
        """
        if (
            self._resync_interval is not None
            and self._blocks_sent
            and self._blocks_sent % self._resync_interval == 0
        ):
            self.resync()
        before = self.cost_so_far()
        blocks_before = len(self.receiver.received_blocks)
        self.transmitter.load_block(chunks)
        self._blocks_sent += 1
        limit = max_cycles if max_cycles is not None else self._transfer_bound()
        delivered = False
        for _ in range(limit):
            self.step()
            if len(self.receiver.received_blocks) > blocks_before:
                delivered = True
                break
        # A glitched strobe can close the receiver's framing before the
        # transmitter finishes driving; drain it so the link is ready
        # for the next block (a no-op on a fault-free link).
        while self.transmitter.busy:
            self.step()
        if not delivered:
            if self._injector is None:
                raise RuntimeError(
                    f"block transfer did not complete within {limit} cycles"
                )
            # Block watchdog: the block never assembled — count the
            # loss and force a resync.
            self._blocks_lost += 1
            if self._desync_seen_at is None:
                self._desync_seen_at = self._cycles
            self.resync()
        after = self.cost_so_far()
        return TransferCost(
            data_flips=after.data_flips - before.data_flips,
            overhead_flips=after.overhead_flips - before.overhead_flips,
            sync_flips=after.sync_flips - before.sync_flips,
            cycles=after.cycles - before.cycles,
        )

    def _transfer_bound(self) -> int:
        """A safe upper bound on one block's transfer time."""
        worst_round = self._layout.max_chunk_value + 3
        return self._layout.num_rounds * worst_round + self._wire_delay + 4
