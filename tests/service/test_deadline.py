"""Deadline propagation tests: every stage respects the budget.

Covers the full path: client header stamping → server parse → absolute
deadline on the Pending → admission refusal → batcher cancellation →
bounded result await → structured 504 — plus the invariant that an
expired deadline is never a hung future.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.pipeline import (
    DeadlineExceeded,
    ServiceConfig,
    SimulationService,
)
from repro.service.stages import Admission, Pending
from repro.service.clock import FakeClock
from repro.service.metrics import MetricsRegistry
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.engine import SimJob
from repro.sim.store import ResultStore


def job_for(blocks: int = 100) -> SimJob:
    return SimJob.of(
        "Ocean", SchemeConfig(), SystemConfig(sample_blocks=blocks)
    )


class StubEngine:
    def __init__(self, gate: threading.Event | None = None):
        self.store = ResultStore()
        self.gate = gate

    def run_many(self, jobs, *args, **kwargs):
        from repro.sim import stages

        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        results = [("result", job.system.sample_blocks) for job in jobs]
        for job, result in zip(jobs, results):
            self.store.put(
                stages.run_key(job.app, job.scheme, job.system), result
            )
        return results


class TestPendingDeadline:
    def test_extend_deadline_folds_toward_the_loosest(self):
        """Coalesced waiters share one computation; it must live as
        long as the *most patient* of them (None = unbounded wins)."""

        async def drive():
            pending = Pending(
                key=("k",), job=job_for(),
                future=asyncio.get_running_loop().create_future(),
            )
            assert pending.deadline is None
            pending.extend_deadline(10.0)
            assert pending.deadline is None  # unbounded stays unbounded
            tight = Pending(
                key=("k2",), job=job_for(),
                future=asyncio.get_running_loop().create_future(),
                deadline=5.0,
            )
            tight.extend_deadline(9.0)
            assert tight.deadline == 9.0
            tight.extend_deadline(7.0)
            assert tight.deadline == 9.0  # never tightens
            tight.extend_deadline(None)
            assert tight.deadline is None

        asyncio.run(drive())


class TestAdmissionDeadline:
    def test_spent_budget_refused_at_the_door(self):
        clock = FakeClock()
        registry = MetricsRegistry()

        async def drive():
            admission = Admission(
                max_queue=4, metrics=registry,
                retry_after=lambda depth: 0.1, clock=clock,
            )
            pending = Pending(
                key=("k",), job=job_for(),
                future=asyncio.get_running_loop().create_future(),
                deadline=clock.monotonic() - 0.001,  # already spent
            )
            with pytest.raises(DeadlineExceeded, match="admission"):
                await admission.offer(pending, wait=False)

        asyncio.run(drive())
        counters = registry.snapshot()["counters"]
        assert counters["deadline_expirations"] == 1

    def test_live_budget_is_admitted(self):
        clock = FakeClock()
        registry = MetricsRegistry()

        async def drive():
            admission = Admission(
                max_queue=4, metrics=registry,
                retry_after=lambda depth: 0.1, clock=clock,
            )
            pending = Pending(
                key=("k",), job=job_for(),
                future=asyncio.get_running_loop().create_future(),
                deadline=clock.monotonic() + 60.0,
            )
            await admission.offer(pending, wait=False)
            assert admission.take_nowait() is pending

        asyncio.run(drive())


class TestServiceDeadline:
    def test_expired_request_gets_structured_504_path(self):
        """A deadline shorter than the engine's latency produces a
        DeadlineExceeded and counts the expiration."""
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        async def drive():
            async with SimulationService(engine=engine) as service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(
                        job_for(100), deadline_s=0.05
                    )
                gate.set()
                await asyncio.sleep(0.05)  # let the batch retire
                return service.snapshot()

        snap = asyncio.run(drive())
        assert snap["counters"]["deadline_expirations"] >= 1

    def test_queued_expired_work_cancelled_before_dispatch(self):
        """Jobs whose budget dies in the queue are cancelled by the
        batcher, not run: the engine never sees them."""
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        seen: list[int] = []
        original = engine.run_many

        def spying_run_many(jobs, *args, **kwargs):
            seen.extend(job.system.sample_blocks for job in jobs)
            return original(jobs, *args, **kwargs)

        engine.run_many = spying_run_many
        config = ServiceConfig(max_batch=1)

        async def drive():
            async with SimulationService(
                engine=engine, config=config
            ) as service:
                # First job blocks the batcher on the gate.
                blocker = asyncio.ensure_future(
                    service.submit(job_for(100), wait=True)
                )
                await asyncio.sleep(0.05)
                # Second job: a budget far too small to survive the
                # queue behind the gated batch.
                doomed = asyncio.ensure_future(
                    service.submit(job_for(101), deadline_s=0.01)
                )
                await asyncio.sleep(0.1)
                gate.set()
                await blocker
                with pytest.raises(DeadlineExceeded):
                    await doomed
                return service.snapshot()

        snap = asyncio.run(drive())
        assert 100 in seen
        assert 101 not in seen  # cancelled before dispatch
        assert snap["counters"]["deadline_expirations"] >= 1

    def test_default_deadline_config_applies_when_caller_gives_none(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        config = ServiceConfig(default_deadline_s=0.05)

        async def drive():
            async with SimulationService(
                engine=engine, config=config
            ) as service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(job_for(100))
                gate.set()

        asyncio.run(drive())

    def test_unbounded_submit_still_works(self):
        engine = StubEngine()

        async def drive():
            async with SimulationService(engine=engine) as service:
                return await service.submit(job_for(100))

        assert asyncio.run(drive()) == ("result", 100)


class TestServerDeadline:
    """The HTTP layer: header in, 504 out."""

    @pytest.fixture(scope="class")
    def slow_harness(self):
        from repro.service.check import ServerHarness

        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with ServerHarness(engine=engine) as harness:
            harness.gate = gate
            yield harness

    def test_deadline_header_maps_to_504(self, slow_harness):
        """A structured 504, never a hang, and the expiry is visible in
        ``/metrics`` over HTTP (the contract of ``repro chaos``'s
        deadline phase)."""
        from repro.service.client import ServiceRequestError

        with slow_harness.client(
            deadline_s=0.05, max_attempts=1
        ) as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate("Ocean", system={"sample_blocks": 100})
        assert excinfo.value.status == 504
        assert excinfo.value.error["type"] == "deadline-exceeded"
        with slow_harness.client() as probe:
            counters = probe.metrics()["counters"]
        assert counters["deadline_expirations"] >= 1
        slow_harness.gate.set()

    def test_malformed_deadline_header_is_400(self, slow_harness):
        import http.client
        import json as json_mod

        conn = http.client.HTTPConnection(
            slow_harness.host, slow_harness.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/simulate",
                body=json_mod.dumps(
                    {"app": "Ocean", "system": {"sample_blocks": 100}}
                ),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-S": "not-a-number",
                },
            )
            response = conn.getresponse()
            body = json_mod.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "bad-request"

    def test_nonpositive_deadline_header_is_400(self, slow_harness):
        import http.client
        import json as json_mod

        conn = http.client.HTTPConnection(
            slow_harness.host, slow_harness.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/simulate",
                body=json_mod.dumps(
                    {"app": "Ocean", "system": {"sample_blocks": 100}}
                ),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-S": "-1.5",
                },
            )
            response = conn.getresponse()
            body = json_mod.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "bad-request"
