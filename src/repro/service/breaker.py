"""The circuit breaker: a sick engine sheds load explicitly.

A service whose engine keeps failing (a poisoned native kernel,
injected chaos) should not keep absorbing requests that will each burn
a batch slot and come back as a 500.  The breaker watches the stack's
recent request outcomes over a sliding window and trips through the
classic three-state machine:

* **closed** — normal service; every outcome is recorded;
* **open** — tripped: the failure rate over the window crossed the
  threshold (with at least ``min_samples`` observations, so one early
  failure cannot trip a cold service).  Requests that would reach the
  engine are rejected up front with
  :class:`~repro.service.stages.ShardUnavailable`, which the HTTP layer
  maps to ``503`` + ``Retry-After``; store hits keep being served.
  After ``cooldown_s`` the breaker moves to half-open;
* **half-open** — probation: up to ``probes`` concurrent requests are
  admitted as probes.  A probe failure reopens the breaker (cooldown
  doubles, bounded); enough probe successes close it and reset the
  window.

Backpressure rejections never count as failures — a full queue is load,
not sickness — and neither do deadline expirations (the client's budget
is not the engine's health).  Only engine-level failures
(:class:`~repro.service.stages.SimulationFailed`, crashed batches)
trip the breaker.

Time flows through the injectable :class:`~repro.service.clock.Clock`,
so tests drive the cooldown with a :class:`~repro.service.clock.FakeClock`.
State transitions are exported on the service's metrics registry: the
``breaker_state`` gauge (0 closed / 1 open / 2 half-open) and the
``breaker_opens_total`` / ``breaker_closes_total`` counters.
"""

from __future__ import annotations

from collections import deque

from repro.service.clock import Clock
from repro.service.metrics import MetricsRegistry

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

#: Numeric encodings of the breaker states, as exported on the
#: ``breaker_state`` gauge.
CLOSED = 0
OPEN = 1
HALF_OPEN = 2

_STATE_NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half-open"}


class BreakerConfig:
    """The breaker's trip policy.

    Args:
        window: Outcomes retained in the sliding window.
        failure_threshold: Failure fraction over the window at (or
            above) which the breaker opens.
        min_samples: Observations required before the threshold can
            trip (a cold service's first failure must not open it).
        cooldown_s: Seconds the breaker stays open before probing;
            doubles on every consecutive reopen, capped at
            ``max_cooldown_s``.
        max_cooldown_s: Upper bound of the cooldown growth.
        probes: Concurrent probe requests admitted while half-open;
            also the successes needed to close.
    """

    def __init__(
        self,
        window: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        cooldown_s: float = 1.0,
        max_cooldown_s: float = 30.0,
        probes: int = 2,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        if max_cooldown_s < cooldown_s:
            raise ValueError(
                f"max_cooldown_s ({max_cooldown_s}) must be >= cooldown_s "
                f"({cooldown_s})"
            )
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self.probes = probes


class CircuitBreaker:
    """The closed → open → half-open state machine for the stack.

    Args:
        config: Trip policy; see :class:`BreakerConfig`.
        clock: Monotonic time source for the cooldown.
        metrics: The service's metrics registry (state gauge +
            transition counters land there).
    """

    def __init__(
        self,
        config: BreakerConfig,
        clock: Clock,
        metrics: MetricsRegistry,
    ) -> None:
        self.config = config
        self._clock = clock
        self._metrics = metrics
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=config.window)
        self._opened_at = 0.0
        self._cooldown = config.cooldown_s
        self._consecutive_opens = 0
        self._probes_inflight = 0
        self._probe_successes = 0
        metrics.gauge("breaker_state").set(CLOSED)

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> int:
        """The current state (``CLOSED``/``OPEN``/``HALF_OPEN``),
        advancing an elapsed cooldown to half-open as a side effect."""
        self._maybe_half_open()
        return self._state

    @property
    def state_name(self) -> str:
        """The current state as text (for snapshots and errors)."""
        return _STATE_NAMES[self.state]

    def retry_after_s(self) -> float:
        """Seconds until the breaker will admit a probe (0 when it
        already would)."""
        if self._state != OPEN:
            return 0.0
        remaining = self._cooldown - (self._clock.monotonic() - self._opened_at)
        return max(0.0, remaining)

    def _set_state(self, state: int) -> None:
        self._state = state
        self._metrics.gauge("breaker_state").set(state)

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and (
            self._clock.monotonic() - self._opened_at >= self._cooldown
        ):
            self._set_state(HALF_OPEN)
            self._probes_inflight = 0
            self._probe_successes = 0

    # -- admission -------------------------------------------------------

    def allow(self) -> bool:
        """Whether one request may proceed right now.

        Closed admits everything; open admits nothing (callers reject
        with 503 + :meth:`retry_after_s`); half-open admits up to the
        configured number of concurrent probes.  An admitted half-open
        request **must** be answered with :meth:`record_success` or
        :meth:`record_failure` to release its probe slot.
        """
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            return False
        if self._probes_inflight < self.config.probes:
            self._probes_inflight += 1
            return True
        return False

    # -- outcomes --------------------------------------------------------

    def record_success(self, probe: bool = False) -> None:
        """Record one successful request outcome.

        Args:
            probe: Whether the request was admitted while half-open
                (releases its probe slot and counts toward closing).
        """
        self._outcomes.append(True)
        if self._state == HALF_OPEN and probe:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.config.probes:
                self._close()

    def record_failure(self, probe: bool = False) -> None:
        """Record one failed request outcome (engine-level only).

        A failure while half-open reopens immediately with a doubled
        (bounded) cooldown; while closed, the sliding-window failure
        rate decides.
        """
        self._outcomes.append(False)
        if self._state == HALF_OPEN and probe:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._open()
            return
        if self._state == CLOSED and self._tripped():
            self._open()

    def release_probe(self) -> None:
        """Release a half-open probe slot without recording an outcome.

        For probes that never reached the engine (backpressure,
        deadline expiry, shutdown): they say nothing about the engine's
        health, but their slot must free up for the next probe.
        """
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)

    def _tripped(self) -> bool:
        if len(self._outcomes) < self.config.min_samples:
            return False
        failures = sum(1 for ok in self._outcomes if not ok)
        return failures / len(self._outcomes) >= self.config.failure_threshold

    def _open(self) -> None:
        self._consecutive_opens += 1
        self._cooldown = min(
            self.config.max_cooldown_s,
            self.config.cooldown_s * (2 ** (self._consecutive_opens - 1)),
        )
        self._opened_at = self._clock.monotonic()
        self._set_state(OPEN)
        self._metrics.counter("breaker_opens_total").inc()

    def _close(self) -> None:
        self._set_state(CLOSED)
        self._outcomes.clear()
        self._consecutive_opens = 0
        self._cooldown = self.config.cooldown_s
        self._metrics.counter("breaker_closes_total").inc()

    def force_open(self) -> None:
        """Trip the breaker unconditionally (the supervisor does this
        while the stage stack is being restarted)."""
        self._maybe_half_open()
        if self._state != OPEN:
            self._open()

    def reset(self) -> None:
        """Return to closed with a clear window (post-restart)."""
        if self._state != CLOSED:
            self._close()
        else:
            self._outcomes.clear()

    def snapshot(self) -> dict:
        """JSON-ready operational state."""
        return {
            "state": self.state_name,
            "window": list(self._outcomes),
            "cooldown_s": self._cooldown,
            "retry_after_s": self.retry_after_s(),
            "consecutive_opens": self._consecutive_opens,
        }
