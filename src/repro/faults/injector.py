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
  (index 0), mis-framing the current round.
* a **stuck-at wire** is pinned to a constant level after masking.
* a **counter desync** is not a wire fault: the injector reports the
  event and :class:`~repro.core.link.DescLink` applies it to the
  receiver's round counter.

The injector is deterministic in its :class:`FaultConfig` seed: the
same config and the same driven-level sequence produce the same faults,
which is what makes fault campaigns reproducible across serial and
parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.processes import (
    BernoulliProcess,
    FaultConfig,
    GilbertElliottProcess,
    make_process,
)

__all__ = ["InjectorStats", "LinkFaultInjector"]


def _active(
    rate: float, num_wires: int, config: FaultConfig, rng: np.random.Generator
) -> BernoulliProcess | GilbertElliottProcess | None:
    """The configured process at ``rate``, or ``None`` when it is zero."""
    return make_process(rate, num_wires, config, rng) if rate else None


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
        for wire in config.stuck_wires:
            if not 0 <= wire < num_wires:
                raise ValueError(
                    f"stuck wire {wire} outside data wires 0..{num_wires - 1}"
                )
        self.config = config
        self.num_wires = num_wires
        self._rng = np.random.default_rng(config.seed)
        lines = 1 + num_wires
        # Drops apply to every line (a masked strobe toggle mis-frames a
        # round); glitches are split between the data wires and the
        # dedicated strobe process so their rates tune independently.
        # A zero-rate process never draws or fires, so it is not built
        # at all: ``perturb`` then skips it without changing the draws.
        self._drop = _active(config.drop_rate, lines, config, self._rng)
        self._glitch = _active(config.glitch_rate, num_wires, config, self._rng)
        self._strobe = _active(
            config.strobe_glitch_rate, 1, config, self._rng
        )
        self._desync = _active(config.desync_rate, 1, config, self._rng)
        self._mask = np.zeros(lines, dtype=np.uint8)
        self._stuck = 1 + np.array(config.stuck_wires, dtype=np.intp)
        self._last_driven: np.ndarray | None = None
        self._pending_desync = 0
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

    def perturb(self, levels: np.ndarray) -> np.ndarray:
        """One cycle of faults: driven levels in, delivered levels out.

        Must be called exactly once per link cycle — the fault processes
        advance on every call.  The injector keeps ``levels`` (without
        copying) to spot the next cycle's toggles, so a caller must not
        modify the array afterwards; :class:`~repro.core.link.DescLink`
        hands over a fresh array every cycle.
        """
        driven = np.asarray(levels, dtype=np.uint8)
        if len(driven) != 1 + self.num_wires:
            raise ValueError(
                f"expected {1 + self.num_wires} wire levels, got {len(driven)}"
            )
        if self._drop is not None:
            events = self._drop.sample()
            if self._last_driven is not None:
                drops = events & (driven != self._last_driven)
                dropped = int(np.count_nonzero(drops))
                if dropped:
                    self._mask ^= drops
                    self.dropped_toggles += dropped
            self._last_driven = driven
        if self._glitch is not None:
            glitches = self._glitch.sample()
            glitched = int(np.count_nonzero(glitches))
            if glitched:
                self._mask[1:] ^= glitches
                self.spurious_toggles += glitched
        if self._strobe is not None and self._strobe.sample()[0]:
            self._mask[0] ^= 1
            self.strobe_glitches += 1
        if self._desync is not None and self._desync.sample()[0]:
            self.desync_events += 1
            # Alternate the drift direction so campaigns see both.
            self._pending_desync = 1 if self.desync_events % 2 else -1
        self.cycles += 1
        return self.deliver(driven)

    def deliver(self, levels: np.ndarray) -> np.ndarray:
        """Apply the *current* fault state without advancing it.

        Used by the resync protocol to read the settled delivered levels
        while the link is stalled.
        """
        delivered = np.asarray(levels, dtype=np.uint8) ^ self._mask
        delivered[self._stuck] = self.config.stuck_level
        return delivered

    def take_desync(self) -> int:
        """Counter drift (±1) to apply this cycle, or 0.

        Consuming resets the pending event, so each desync fires once.
        """
        delta = self._pending_desync
        self._pending_desync = 0
        return delta
