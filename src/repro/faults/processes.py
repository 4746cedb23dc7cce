"""Seeded per-wire fault processes (Bernoulli and Gilbert–Elliott).

Each process answers one question every cycle: *which wires suffer a
fault event right now?*  The memoryless :class:`BernoulliProcess` models
independent transient upsets; the two-state :class:`GilbertElliottProcess`
models bursty channels (crosstalk windows, supply droop) where errors
cluster — the regime the skip-based encoding literature studies for
error-resilient transfer (see PAPERS.md).

All randomness flows from one :class:`numpy.random.Generator` owned by
the injector, so a campaign seeded once is reproducible event-for-event
regardless of host or worker count.

A process turns the uniform draws of a block of cycles into one event
mask per cycle (:meth:`BernoulliProcess.events`; bit ``i`` marks wire
``i``, as in :mod:`repro.core.masks`): the comparisons run once per
block in NumPy and only the Gilbert–Elliott chain steps per cycle, on
an integer state mask.  Each cycle consumes :attr:`draws_per_cycle`
doubles in a fixed order, so the injector can draw a whole block of
cycles in one ``rng.random`` call: consecutive draws are the same
doubles whether they come one cycle or one block at a time.
:meth:`~BernoulliProcess.sample` draws and returns a single cycle as a
bool array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.masks import pack_rows, unpack_rows

__all__ = [
    "FaultConfig",
    "BernoulliProcess",
    "GilbertElliottProcess",
    "make_process",
]


def _require_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """A frozen, hashable description of the link's fault environment.

    Rates are per wire per cycle.  The default instance injects nothing,
    so ``FaultConfig()`` doubles as the explicit "no faults" value.

    Attributes:
        drop_rate: Probability that a wire transition is masked (the
            delivered level holds).  A drop inverts the parity of every
            later toggle on that wire until a resync re-arms the
            receiver — the paper's counter-desynchronization hazard.
        glitch_rate: Probability of a spurious transition on a data
            wire (delivered level inverts from this cycle on).
        strobe_glitch_rate: Probability of a spurious transition on the
            shared reset/skip wire — mis-framing a whole round.
        desync_rate: Probability per cycle of a receiver counter upset
            (the count mislatches by ±1 mid-round).
        stuck_wires: Data-wire indices pinned to ``stuck_level``
            (hard faults).
        stuck_level: The level stuck wires are pinned to.
        burst: Drive drop/glitch events through a per-wire
            Gilbert–Elliott chain instead of memoryless Bernoulli draws.
        burst_on_rate: Good→bad state transition probability per cycle.
        burst_off_rate: Bad→good state transition probability per cycle.
        burst_gain: Multiplier applied to the base event rate while a
            wire is in the bad state (clipped to 1).
        seed: Seed of the injector's generator; every fault event is a
            pure function of this seed and the driven levels.
    """

    drop_rate: float = 0.0
    glitch_rate: float = 0.0
    strobe_glitch_rate: float = 0.0
    desync_rate: float = 0.0
    stuck_wires: tuple[int, ...] = ()
    stuck_level: int = 0
    burst: bool = False
    burst_on_rate: float = 0.02
    burst_off_rate: float = 0.25
    burst_gain: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "glitch_rate", "strobe_glitch_rate",
                     "desync_rate", "burst_on_rate", "burst_off_rate"):
            _require_rate(name, getattr(self, name))
        if self.stuck_level not in (0, 1):
            raise ValueError(
                f"stuck_level must be 0 or 1, got {self.stuck_level}"
            )
        if self.burst_gain <= 0:
            raise ValueError(
                f"burst_gain must be positive, got {self.burst_gain}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.stuck_wires, tuple):
            # Accept lists for convenience while keeping hashability.
            object.__setattr__(self, "stuck_wires", tuple(self.stuck_wires))

    @property
    def any_faults(self) -> bool:
        """Whether this configuration can perturb the link at all."""
        return bool(
            self.drop_rate or self.glitch_rate or self.strobe_glitch_rate
            or self.desync_rate or self.stuck_wires
        )


class BernoulliProcess:
    """Memoryless per-wire fault events at a fixed rate."""

    def __init__(
        self, rate: float, num_wires: int, rng: np.random.Generator
    ) -> None:
        _require_rate("rate", rate)
        if num_wires <= 0:
            raise ValueError(f"num_wires must be positive, got {num_wires}")
        self.rate = rate
        self.num_wires = num_wires
        self._rng = rng

    @property
    def draws_per_cycle(self) -> int:
        """Uniform draws one cycle consumes (none at rate 0)."""
        return self.num_wires if self.rate else 0

    def events(self, uniforms: np.ndarray) -> list[int]:
        """Event masks of a block of cycles, one per row of ``uniforms``.

        ``uniforms`` is ``(cycles, draws_per_cycle)``: each cycle's
        draws in draw order.  Bit ``i`` of a mask marks wire ``i``.
        """
        if not self.rate:
            return [0] * len(uniforms)
        return pack_rows(uniforms < self.rate)

    def sample(self) -> np.ndarray:
        """Boolean event vector for this cycle, one entry per wire."""
        uniforms = self._rng.random((1, self.draws_per_cycle))
        return unpack_rows(self.events(uniforms), self.num_wires)[0]


class GilbertElliottProcess:
    """Bursty per-wire fault events from a two-state Markov chain.

    Each wire is independently in a *good* state (events at
    ``base_rate``) or a *bad* state (events at ``base_rate * gain``,
    clipped to 1).  Transitions happen per cycle with the configured
    probabilities, so the stationary bad-state occupancy is
    ``on_rate / (on_rate + off_rate)``.  A cycle draws one event
    uniform per wire, then one transition uniform per wire.
    """

    def __init__(
        self,
        base_rate: float,
        num_wires: int,
        rng: np.random.Generator,
        on_rate: float = 0.02,
        off_rate: float = 0.25,
        gain: float = 20.0,
    ) -> None:
        _require_rate("base_rate", base_rate)
        if num_wires <= 0:
            raise ValueError(f"num_wires must be positive, got {num_wires}")
        self.base_rate = base_rate
        self.bad_rate = min(1.0, base_rate * gain)
        self.num_wires = num_wires
        self.on_rate = on_rate
        self.off_rate = off_rate
        self._rng = rng
        self._bad = 0  # bit i set: wire i is in the bad state

    @property
    def bad_states(self) -> np.ndarray:
        """Current per-wire state (True = bad/bursty)."""
        return unpack_rows([self._bad], self.num_wires)[0].copy()

    @property
    def draws_per_cycle(self) -> int:
        """Uniform draws one cycle consumes (none at base rate 0)."""
        return 2 * self.num_wires if self.base_rate else 0

    def events(self, uniforms: np.ndarray) -> list[int]:
        """Advance the chains a block of cycles; return each cycle's events.

        ``uniforms`` is ``(cycles, draws_per_cycle)``: per cycle the
        event draws, then the transition draws.
        """
        if not self.base_rate:
            return [0] * len(uniforms)
        draws, flips = np.hsplit(uniforms, 2)
        bad = self._bad
        events = []
        for good_events, bad_events, enter, leave in zip(
            pack_rows(draws < self.base_rate),
            pack_rows(draws < self.bad_rate),
            pack_rows(flips < self.on_rate),
            pack_rows(flips < self.off_rate),
            strict=True,
        ):
            events.append((good_events & ~bad) | (bad_events & bad))
            bad = (bad | enter) & ~(bad & leave)
        self._bad = bad
        return events

    def sample(self) -> np.ndarray:
        """Advance the chains one cycle; return this cycle's events."""
        uniforms = self._rng.random((1, self.draws_per_cycle))
        return unpack_rows(self.events(uniforms), self.num_wires)[0]


def make_process(
    rate: float,
    num_wires: int,
    config: FaultConfig,
    rng: np.random.Generator,
):
    """The configured process type for one fault class at ``rate``."""
    if config.burst:
        return GilbertElliottProcess(
            rate,
            num_wires,
            rng,
            on_rate=config.burst_on_rate,
            off_rate=config.burst_off_rate,
            gain=config.burst_gain,
        )
    return BernoulliProcess(rate, num_wires, rng)
