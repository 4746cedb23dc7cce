"""Tests for the chaos harness building blocks.

The full campaign (``repro chaos``) runs in CI; these tests pin down
the interceptor switchboard it is built from, plus one small campaign
through the public API.
"""

from __future__ import annotations

import asyncio

from repro.service.chaos import ChaosController, run_chaos


class TestChaosController:
    def test_off_mode_passes_batches_through(self):
        controller = ChaosController()
        intercept = controller.intercept
        asyncio.run(intercept([]))
        assert controller.snapshot() == {"delays": 0}

    def test_slow_mode_delays_not_crashes(self):
        controller = ChaosController(latency_s=0.0)
        controller.mode = "slow"
        intercept = controller.intercept
        asyncio.run(intercept([]))
        assert controller.delays == 1


class TestQuickCampaign:
    """One real (tiny) campaign per test session, via the public API."""

    def test_run_chaos_quick_passes_and_reports(self, tmp_path):
        report_path = tmp_path / "chaos-report.json"
        code, report = run_chaos(quick=True, report_out=str(report_path))
        assert code == 0
        assert report["ok"] is True
        assert report["problems"] == []
        assert report_path.exists()
        assert set(report["phases"]) == {"scrub", "deadlines", "queue_flood"}
        assert report["phases"]["scrub"]["repaired"] > 0
        assert report["counters"]["deadline_expirations"] > 0
