"""Unit tests for the circuit breaker state machine."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.clock import FakeClock
from repro.service.metrics import MetricsRegistry


def make_breaker(**overrides):
    defaults = dict(
        window=8, failure_threshold=0.5, min_samples=2,
        cooldown_s=1.0, max_cooldown_s=8.0, probes=1,
    )
    defaults.update(overrides)
    clock = FakeClock()
    registry = MetricsRegistry()
    breaker = CircuitBreaker(BreakerConfig(**defaults), clock, registry)
    return breaker, clock, registry


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_past_failure_threshold(self):
        breaker, _, registry = make_breaker()
        breaker.record_failure()
        assert breaker.state == CLOSED  # min_samples not yet met
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert registry.snapshot()["counters"]["breaker_opens_total"] == 1

    def test_successes_keep_it_closed(self):
        breaker, _, _ = make_breaker()
        for _ in range(20):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_cooldown_elapses_into_half_open(self):
        breaker, clock, _ = make_breaker(cooldown_s=2.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.0)
        assert breaker.state == OPEN
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker, clock, registry = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # the probe slot
        breaker.record_success(probe=True)
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert registry.snapshot()["counters"]["breaker_closes_total"] == 1

    def test_half_open_probe_failure_reopens_with_doubled_cooldown(self):
        breaker, clock, _ = make_breaker(cooldown_s=1.0, max_cooldown_s=8.0)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure(probe=True)
        assert breaker.state == OPEN
        clock.advance(1.5)  # old cooldown would have elapsed
        assert breaker.state == OPEN  # doubled: needs 2s now
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN

    def test_cooldown_doubling_is_capped(self):
        breaker, clock, _ = make_breaker(cooldown_s=1.0, max_cooldown_s=2.0)
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(5):  # repeatedly fail the probe
            clock.advance(16.0)
            assert breaker.allow()
            breaker.record_failure(probe=True)
        assert breaker.retry_after_s() <= 2.0

    def test_half_open_admits_only_the_probe_budget(self):
        breaker, clock, _ = make_breaker(probes=1)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        assert not breaker.allow()  # probe slot taken

    def test_release_probe_frees_the_slot_without_an_outcome(self):
        breaker, clock, _ = make_breaker(probes=1)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.release_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # slot free again

    def test_sliding_window_forgets_old_failures(self):
        breaker, _, _ = make_breaker(window=4, min_samples=4)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        breaker.reset()
        # Two old failures slide out as successes land.
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(4):
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_force_open_and_reset(self):
        breaker, _, registry = make_breaker()
        breaker.force_open()
        assert breaker.state == OPEN
        assert not breaker.allow()
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()
        # A forced open still counts as an open for observability.
        assert registry.snapshot()["counters"]["breaker_opens_total"] == 1

    def test_breaker_state_gauge_tracks_transitions(self):
        breaker, clock, registry = make_breaker()

        def gauge():
            return registry.snapshot()["gauges"]["breaker_state"]

        assert gauge() == CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert gauge() == OPEN
        clock.advance(1.5)
        assert breaker.allow()
        assert gauge() == HALF_OPEN
        breaker.record_success(probe=True)
        assert gauge() == CLOSED

    def test_retry_after_counts_down_with_the_clock(self):
        breaker, clock, _ = make_breaker(cooldown_s=4.0)
        breaker.record_failure()
        breaker.record_failure()
        first = breaker.retry_after_s()
        clock.advance(1.0)
        assert breaker.retry_after_s() == pytest.approx(first - 1.0)

    def test_snapshot_is_json_ready(self):
        breaker, _, _ = make_breaker()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["window"] == [False]
        assert snap["retry_after_s"] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            BreakerConfig(window=0)
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(failure_threshold=1.5)
        with pytest.raises(ValueError, match="cooldown"):
            BreakerConfig(cooldown_s=0.0)
        with pytest.raises(ValueError, match="probes"):
            BreakerConfig(probes=0)


class TestServiceIntegration:
    """The breaker wired into the service: failures shed load with
    503s."""

    def test_failing_shard_sheds_load_with_shard_unavailable(self):
        from repro.service.pipeline import (
            ServiceConfig,
            ShardUnavailable,
            SimulationFailed,
            SimulationService,
        )
        from repro.sim.config import SchemeConfig, SystemConfig
        from repro.sim.engine import FailedJob, SimJob

        class FailingEngine:
            def __init__(self):
                from repro.sim.store import ResultStore

                self.store = ResultStore()

            def run_many(self, jobs, *args, **kwargs):
                return [
                    FailedJob(job=job, reason="error", error="boom")
                    for job in jobs
                ]

        config = ServiceConfig(
            breaker=BreakerConfig(
                window=4, failure_threshold=0.5, min_samples=2,
                cooldown_s=30.0,
            ),
        )

        async def drive():
            async with SimulationService(
                engine=FailingEngine(), config=config
            ) as service:
                for i in range(2):
                    with pytest.raises(SimulationFailed):
                        await service.submit(SimJob.of(
                            "Ocean", SchemeConfig(),
                            SystemConfig(sample_blocks=100 + i),
                        ))
                with pytest.raises(ShardUnavailable) as excinfo:
                    await service.submit(SimJob.of(
                        "Ocean", SchemeConfig(),
                        SystemConfig(sample_blocks=200),
                    ))
                return excinfo.value, service.snapshot()

        rejection, snap = asyncio.run(drive())
        assert rejection.retry_after_s > 0
        assert snap["breaker"]["state"] == "open"
        assert snap["gauges"]["breaker_state"] == OPEN

    def test_probe_admitted_as_the_cooldown_expires_is_released(self):
        """The cooldown can run out between the service's probe check
        and ``allow()``.  The request ``allow()`` then admits must
        still count as the probe, or its slot leaks and the breaker
        sticks half-open, shedding every later request."""
        from repro.service.pipeline import (
            ServiceConfig,
            ShardUnavailable,
            SimulationFailed,
            SimulationService,
        )
        from repro.sim import stages
        from repro.sim.config import SchemeConfig, SystemConfig
        from repro.sim.engine import FailedJob, SimJob
        from repro.sim.store import ResultStore

        tick = 0.25

        class TickingClock(FakeClock):
            """Advances one tick after every reading."""

            def monotonic(self):
                now = super().monotonic()
                self.advance(tick)
                return now

        class FlakyEngine:
            def __init__(self):
                self.store = ResultStore()
                self.failures_left = 2

            def run_many(self, jobs, *args, **kwargs):
                results = []
                for job in jobs:
                    if self.failures_left:
                        self.failures_left -= 1
                        results.append(
                            FailedJob(job=job, reason="error", error="boom")
                        )
                        continue
                    result = ("result", job.system.sample_blocks)
                    self.store.put(
                        stages.run_key(job.app, job.scheme, job.system),
                        result,
                    )
                    results.append(result)
                return results

        def job(blocks):
            return SimJob.of(
                "Ocean", SchemeConfig(), SystemConfig(sample_blocks=blocks)
            )

        clock = TickingClock()
        config = ServiceConfig(
            breaker=BreakerConfig(
                window=4, failure_threshold=0.5, min_samples=2,
                cooldown_s=4.0, probes=1,
            ),
        )

        async def drive():
            async with SimulationService(
                engine=FlakyEngine(), config=config, clock=clock
            ) as service:
                for blocks in (100, 101):
                    with pytest.raises(SimulationFailed):
                        await service.submit(job(blocks))
                remaining = service.breaker.retry_after_s()
                # Land the cooldown's end on the third clock reading of
                # the next submit() (start time, then the breaker).
                clock.advance(remaining - 3 * tick)
                results = []
                for blocks in (200, 201):
                    for _ in range(3):
                        try:
                            results.append(await service.submit(job(blocks)))
                            break
                        except ShardUnavailable:
                            pass  # shed until the cooldown runs out
                return results, service.breaker.state_name

        results, state = asyncio.run(drive())
        assert results == [("result", 200), ("result", 201)]
        assert state == "closed"
