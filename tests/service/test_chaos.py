"""Tests for the chaos harness building blocks.

The full campaign (``repro chaos``) runs in CI; these tests pin down
the pieces it is built from — seeded schedules, the interceptor
switchboard — plus one small end-to-end: a killed batch on a live
server still produces the right answer and a restart in /metrics.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.service.chaos import ChaosController, ChaosSchedule, run_chaos
from repro.service.stages import BatchCrash


def fire_sequence(schedule: ChaosSchedule, ticks: int):
    return [schedule.fire() for _ in range(ticks)]


class TestChaosSchedule:
    def test_same_seed_same_fire_sequence(self):
        first = ChaosSchedule(0.3, np.random.default_rng(42))
        second = ChaosSchedule(0.3, np.random.default_rng(42))
        assert fire_sequence(first, 50) == fire_sequence(second, 50)

    def test_different_seeds_diverge(self):
        first = ChaosSchedule(0.3, np.random.default_rng(1))
        second = ChaosSchedule(0.3, np.random.default_rng(2))
        assert fire_sequence(first, 100) != fire_sequence(second, 100)

    def test_budget_caps_total_events(self):
        schedule = ChaosSchedule(1.0, np.random.default_rng(0), budget=3)
        fired = sum(fire_sequence(schedule, 50))
        assert fired == 3
        assert schedule.fired == 3

    def test_zero_rate_never_fires(self):
        schedule = ChaosSchedule(0.0, np.random.default_rng(0))
        assert not any(fire_sequence(schedule, 100))

    def test_burst_schedule_is_also_reproducible(self):
        first = ChaosSchedule(0.2, np.random.default_rng(7), burst=True)
        second = ChaosSchedule(0.2, np.random.default_rng(7), burst=True)
        assert fire_sequence(first, 80) == fire_sequence(second, 80)


class TestChaosController:
    def test_off_mode_passes_batches_through(self):
        controller = ChaosController(seed=0)
        intercept = controller.intercept
        asyncio.run(intercept([]))
        assert controller.snapshot() == {
            "kills": 0, "failures": 0, "delays": 0,
        }

    def test_fail_mode_raises_plain_exception(self):
        """A plain Exception: absorbed by the executor as FailedJob
        slots (breaker fuel), never a task-killing crash."""
        controller = ChaosController(seed=0)
        controller.mode = "fail"
        intercept = controller.intercept
        with pytest.raises(RuntimeError, match="chaos failure"):
            asyncio.run(intercept([]))
        assert not isinstance(RuntimeError("x"), BatchCrash)
        assert controller.failures == 1

    def test_kill_mode_raises_batch_crash_when_schedule_fires(self):
        controller = ChaosController(
            seed=0, kill_rate=1.0, jitter_rate=0.0
        )
        controller.mode = "kill"
        intercept = controller.intercept
        with pytest.raises(BatchCrash, match="chaos kill"):
            asyncio.run(intercept([]))
        assert controller.kills == 1

    def test_kill_budget_quiets_the_storm(self):
        controller = ChaosController(
            seed=0, kill_rate=1.0, kill_budget=2, jitter_rate=0.0
        )
        controller.mode = "kill"
        intercept = controller.intercept
        crashes = 0
        for _ in range(10):
            try:
                asyncio.run(intercept([]))
            except BatchCrash:
                crashes += 1
        assert crashes == 2

    def test_slow_mode_delays_not_crashes(self):
        controller = ChaosController(seed=0, latency_s=0.0)
        controller.mode = "slow"
        intercept = controller.intercept
        asyncio.run(intercept([]))
        assert controller.delays == 1
        assert controller.kills == 0


class TestChaosEndToEnd:
    def test_killed_batch_still_answered_and_restart_visible(self):
        """A guaranteed kill on the first batch: the request must still
        come back byte-correct and the supervisor restart must appear
        in the service metrics."""
        from repro.service.check import ServerHarness
        from repro.service.pipeline import ServiceConfig

        controller = ChaosController(
            seed=0, kill_rate=1.0, kill_budget=1, jitter_rate=0.0
        )
        controller.mode = "kill"
        config = ServiceConfig(
            batch_linger_s=0.0,
            supervisor_interval_s=0.01,
            restart_backoff_s=0.01,
            restart_max_backoff_s=0.1,
        )
        with ServerHarness(
            service_config=config,
            interceptor=controller.intercept,
        ) as harness:
            with harness.client(timeout=30, max_attempts=3) as client:
                result = client.simulate(
                    "Ocean", system={"sample_blocks": 128}
                )
                metrics = client.metrics()
        assert controller.kills == 1
        assert result["app"] == "Ocean"
        assert metrics["counters"]["supervisor_restarts"] >= 1


class TestQuickCampaign:
    """One real (tiny) campaign per test session, via the public API."""

    def test_run_chaos_quick_passes_and_reports(self, tmp_path):
        report_path = tmp_path / "chaos-report.json"
        code, report = run_chaos(
            quick=True, seed=0, report_out=str(report_path)
        )
        assert code == 0
        assert report["ok"] is True
        assert report["problems"] == []
        assert report_path.exists()
        counters = report["counters"]
        assert counters["supervisor_restarts"] > 0
        assert counters["breaker_opens_total"] > 0
        assert counters["deadline_expirations"] > 0
        assert counters["scrub_repairs"] > 0
