"""The link-level fault injector: perturbs delivered wire *levels*.

DESC endpoints communicate through level transitions, so faults are
modelled as an XOR mask between the transmitter's driven levels and the
levels the receiver observes:

* a **dropped toggle** flips the mask exactly when the transmitter
  toggles — the edge is masked, and (crucially) every later toggle on
  that wire arrives with inverted parity until something re-arms the
  receiver.  One drop therefore poisons a wire indefinitely, which is
  the counter-desynchronization hazard the paper's resync machinery
  exists for.
* a **spurious toggle** (glitch) flips the mask at an arbitrary cycle —
  one phantom edge now, normal edges afterwards.
* a **strobe glitch** is a glitch on the shared reset/skip wire
  (line 0), mis-framing the current round.
* a **stuck-at wire** is pinned to a constant level after masking.
* a **counter desync** is not a wire fault: the injector reports the
  event and :class:`~repro.core.link.DescLink` applies it to the
  receiver's round counter.

Levels and the mask are integer masks (:mod:`repro.core.masks`: bit 0
is the reset/skip wire, bit ``1 + i`` data wire ``i``), so a cycle of
:meth:`LinkFaultInjector.perturb` is a few integer operations.  The
fault processes' uniforms are drawn a block of cycles at a time, with
one ``rng.random`` call whose rows hold each cycle's draws in the
per-cycle order — drop, glitch, strobe, desync, and for a
Gilbert–Elliott process its event draws before its transition draws.
Consecutive draws are the same doubles however they are grouped, so
every fault event is the one a cycle-by-cycle draw would give.

The injector is deterministic in its :class:`FaultConfig` seed: the
same config and the same driven-level sequence produce the same faults,
which is what makes fault campaigns reproducible across serial and
parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.processes import FaultConfig, make_process

__all__ = ["InjectorStats", "LinkFaultInjector"]

#: Cycles of fault draws taken from the generator at a time.  Any
#: length gives the same events; this one amortizes the NumPy calls.
_BLOCK_CYCLES = 256


@dataclass(frozen=True)
class InjectorStats:
    """Counters of the fault events an injector has produced.

    Attributes:
        dropped_toggles: Transmitter transitions masked from the receiver.
        spurious_toggles: Phantom data-wire transitions delivered.
        strobe_glitches: Phantom reset/skip-wire transitions delivered.
        desync_events: Receiver counter upsets signalled.
        cycles: Cycles the injector has perturbed.
    """

    dropped_toggles: int
    spurious_toggles: int
    strobe_glitches: int
    desync_events: int
    cycles: int

    @property
    def total_events(self) -> int:
        """All fault events of any class."""
        return (
            self.dropped_toggles + self.spurious_toggles
            + self.strobe_glitches + self.desync_events
        )


class LinkFaultInjector:
    """Stateful per-link fault source; one instance per faulty link.

    Args:
        config: The fault environment to realize.
        num_wires: Data-wire count of the link's layout (the injector
            perturbs ``1 + num_wires`` lines; line 0 is the shared
            reset/skip wire).
    """

    def __init__(self, config: FaultConfig, num_wires: int) -> None:
        if num_wires <= 0:
            raise ValueError(f"num_wires must be positive, got {num_wires}")
        stuck = 0  # the stuck wires' bits in a level mask
        for wire in config.stuck_wires:
            if not 0 <= wire < num_wires:
                raise ValueError(
                    f"stuck wire {wire} outside data wires 0..{num_wires - 1}"
                )
            stuck |= 1 << (1 + wire)
        self.config = config
        self.num_wires = num_wires
        self._rng = np.random.default_rng(config.seed)
        self._lines = lines = 1 + num_wires
        # Drops apply to every line (a masked strobe toggle mis-frames a
        # round); glitches are split between the data wires and the
        # dedicated strobe process so their rates tune independently.
        # A zero-rate process never draws or fires, so it is not built
        # at all: its events read 0 without changing the draws.
        self._processes = tuple(
            make_process(rate, width, config, self._rng) if rate else None
            for rate, width in (
                (config.drop_rate, lines),
                (config.glitch_rate, num_wires),
                (config.strobe_glitch_rate, 1),
                (config.desync_rate, 1),
            )
        )
        self._mask = 0
        self._unstuck = ((1 << lines) - 1) & ~stuck
        self._stuck_high = stuck if config.stuck_level else 0
        self._last_driven: int | None = None
        self._pending_desync = 0
        # Per cycle of the drawn block: (drops, glitches, strobe, desync)
        # event masks, glitches already shifted onto the data wires.
        self._block: list[tuple[int, int, int, int]] = []
        self._cursor = 0
        self.dropped_toggles = 0
        self.spurious_toggles = 0
        self.strobe_glitches = 0
        self.desync_events = 0
        self.cycles = 0

    def stats(self) -> InjectorStats:
        """A snapshot of the event counters."""
        return InjectorStats(
            dropped_toggles=self.dropped_toggles,
            spurious_toggles=self.spurious_toggles,
            strobe_glitches=self.strobe_glitches,
            desync_events=self.desync_events,
            cycles=self.cycles,
        )

    def _draw_block(self) -> None:
        """Draw the fault events of the next ``_BLOCK_CYCLES`` cycles."""
        draws = sum(p.draws_per_cycle for p in self._processes if p is not None)
        uniforms = self._rng.random((_BLOCK_CYCLES, draws))
        events: list[list[int]] = []
        start = 0
        for process in self._processes:
            if process is None:
                events.append([0] * _BLOCK_CYCLES)
                continue
            stop = start + process.draws_per_cycle
            events.append(process.events(uniforms[:, start:stop]))
            start = stop
        drops, glitches, strobes, desyncs = events
        self._block = list(
            zip(drops, [g << 1 for g in glitches], strobes, desyncs, strict=True)
        )
        self._cursor = 0

    def perturb(self, levels: int) -> int:
        """One cycle of faults: driven levels in, delivered levels out.

        Both are level masks.  Must be called exactly once per link
        cycle — the fault processes advance on every call.
        """
        if levels >> self._lines:
            raise ValueError(
                f"expected {self._lines} wire levels, got mask {levels:#x}"
            )
        if self._cursor == len(self._block):
            self._draw_block()
        drops, glitches, strobe, desync = self._block[self._cursor]
        self._cursor += 1
        if drops and self._last_driven is not None:
            dropped = drops & (levels ^ self._last_driven)
            if dropped:
                self._mask ^= dropped
                self.dropped_toggles += dropped.bit_count()
        self._last_driven = levels
        if glitches:
            self._mask ^= glitches
            self.spurious_toggles += glitches.bit_count()
        if strobe:
            self._mask ^= 1
            self.strobe_glitches += 1
        if desync:
            self.desync_events += 1
            # Alternate the drift direction so campaigns see both.
            self._pending_desync = 1 if self.desync_events % 2 else -1
        self.cycles += 1
        return self.deliver(levels)

    def deliver(self, levels: int) -> int:
        """Apply the *current* fault state without advancing it.

        Used by the resync protocol to read the settled delivered levels
        while the link is stalled.
        """
        return ((levels ^ self._mask) & self._unstuck) | self._stuck_high

    def take_desync(self) -> int:
        """Counter drift (±1) to apply this cycle, or 0.

        Consuming resets the pending event, so each desync fires once.
        """
        delta = self._pending_desync
        self._pending_desync = 0
        return delta
