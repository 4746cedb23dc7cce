"""Unit tests for the composable pipeline stages.

Each stage is exercised in isolation — that independence is the point
of the refactor — plus the protocol conformance every stage must keep.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.clock import FakeClock
from repro.service.metrics import MetricsRegistry
from repro.service.stages import (
    Admission,
    Backpressure,
    Batcher,
    Coalescer,
    Executor,
    Pending,
    PipelineStage,
    SHUTDOWN,
    ServiceError,
)
from repro.sim.engine import FailedJob

ALL_STAGE_TYPES = (Admission, Coalescer, Batcher, Executor)


def scope():
    return MetricsRegistry()


def make_pending(loop, key=("k",)):
    return Pending(key=key, job=None, future=loop.create_future())


class TestProtocol:
    def test_every_stage_satisfies_the_protocol_surface(self):
        # Structural conformance, the runtime mirror of lint R003's
        # static check: name, snapshot(), and an async drain().
        for stage_type in ALL_STAGE_TYPES:
            assert isinstance(stage_type.name, str) and stage_type.name
            assert callable(stage_type.snapshot)
            assert asyncio.iscoroutinefunction(stage_type.drain)

    def test_stage_names_are_distinct(self):
        names = [stage_type.name for stage_type in ALL_STAGE_TYPES]
        assert len(set(names)) == len(names)

    def test_protocol_declares_the_wiring_surface(self):
        # PipelineStage is a typing.Protocol: its members enumerate the
        # wiring surface the service depends on.
        assert "name" in PipelineStage.__annotations__
        assert callable(PipelineStage.snapshot)
        assert asyncio.iscoroutinefunction(PipelineStage.drain)


class TestAdmission:
    def test_offer_take_roundtrip(self):
        async def drive():
            admission = Admission(
                max_queue=2, metrics=scope(), retry_after=lambda depth: 0.25
            )
            loop = asyncio.get_running_loop()
            pending = make_pending(loop)
            await admission.offer(pending, wait=False)
            assert admission.depth == 1
            assert await admission.take() is pending
            await admission.drain()

        asyncio.run(drive())

    def test_full_queue_raises_backpressure_with_hint(self):
        async def drive():
            admission = Admission(
                max_queue=1, metrics=scope(), retry_after=lambda depth: 9.75
            )
            loop = asyncio.get_running_loop()
            await admission.offer(make_pending(loop), wait=False)
            with pytest.raises(Backpressure) as excinfo:
                await admission.offer(make_pending(loop), wait=False)
            return excinfo.value, admission

        async def check():
            rejection, admission = await drive()
            assert rejection.retry_after_s == 9.75
            assert rejection.queue_depth == 1
            assert admission.snapshot() == {"queue_depth": 1, "max_queue": 1}
            await admission.drain()

        asyncio.run(check())

    def test_drain_fails_stranded_futures(self):
        async def drive():
            admission = Admission(
                max_queue=4, metrics=scope(), retry_after=lambda depth: 0.1
            )
            loop = asyncio.get_running_loop()
            stranded = make_pending(loop)
            await admission.offer(stranded, wait=False)
            await admission.push_shutdown()
            await admission.drain()
            with pytest.raises(ServiceError, match="stopped"):
                await stranded.future
            assert admission.depth == 0

        asyncio.run(drive())


class TestCoalescer:
    def test_join_counts_only_actual_sharing(self):
        async def drive():
            metrics = scope()
            coalescer = Coalescer(metrics=metrics)
            loop = asyncio.get_running_loop()
            assert coalescer.join(("k",)) is None  # nothing in flight
            pending = make_pending(loop)
            coalescer.register(pending)
            assert coalescer.join(("k",)) is pending
            assert metrics.counter("coalesced_total").value == 1
            coalescer.resolve(("k",))
            assert coalescer.join(("k",)) is None
            assert coalescer.snapshot() == {"inflight": 0}
            pending.future.cancel()

        asyncio.run(drive())

    def test_drain_clears_the_map(self):
        async def drive():
            coalescer = Coalescer(metrics=scope())
            loop = asyncio.get_running_loop()
            pending = make_pending(loop)
            coalescer.register(pending)
            await coalescer.drain()
            assert coalescer.inflight == 0
            pending.future.cancel()

        asyncio.run(drive())


class TestBatcher:
    def test_retry_after_scales_with_ema_and_backlog(self):
        batcher = Batcher(
            max_batch=4, retry_after_floor=0.25,
            clock=FakeClock(), metrics=scope(),
        )
        # No latency observed yet: the floor.
        assert batcher.suggest_retry_after(100) == 0.25
        batcher._ema = 1.0
        # One backlog batch: ema * max_batch.
        assert batcher.suggest_retry_after(0) == 4.0
        # Deep backlog is capped.
        assert batcher.suggest_retry_after(1000) == 30.0

    def test_loop_batches_and_resolves_futures(self):
        class RecordingExecutor:
            def __init__(self):
                self.engine = None
                self.calls = []

            async def execute(self, jobs):
                self.calls.append(list(jobs))
                return [("ok", id(job)) for job in jobs]

        async def drive():
            metrics = scope()
            admission = Admission(
                max_queue=8, metrics=metrics, retry_after=lambda d: 0.1
            )
            coalescer = Coalescer(metrics=metrics)
            executor = RecordingExecutor()
            batcher = Batcher(
                max_batch=8, retry_after_floor=0.25,
                clock=FakeClock(), metrics=metrics,
            )
            loop = asyncio.get_running_loop()
            items = [make_pending(loop, key=("k", i)) for i in range(3)]
            for item in items:
                coalescer.register(item)
                await admission.offer(item, wait=False)
            batcher.start(admission, coalescer, executor)
            results = await asyncio.gather(*(i.future for i in items))
            await batcher.drain()
            await admission.drain()
            return results, executor.calls, coalescer.inflight, batcher

        results, calls, inflight, batcher = asyncio.run(drive())
        assert len(results) == 3
        assert sum(len(call) for call in calls) == 3
        assert inflight == 0  # resolved as batches completed
        assert batcher.job_latency_ema is not None
        assert batcher.snapshot()["running"] is False  # drained

    def test_drain_is_idempotent(self):
        async def drive():
            batcher = Batcher(
                max_batch=2, retry_after_floor=0.25,
                clock=FakeClock(), metrics=scope(),
            )
            await batcher.drain()  # never started: a no-op
            assert batcher.snapshot()["running"] is False

        asyncio.run(drive())


class TestExecutor:
    def test_infrastructure_crash_becomes_failed_slots(self):
        class MeltingEngine:
            store = None

            def run_many(self, jobs, *args, **kwargs):
                raise OSError("engine melted")

        async def drive():
            executor = Executor(engine=MeltingEngine(), retries=1)
            try:
                return await executor.execute(["job-a", "job-b"])
            finally:
                await executor.drain()

        results = asyncio.run(drive())
        assert len(results) == 2
        assert all(isinstance(result, FailedJob) for result in results)
        assert all(result.reason == "error" for result in results)

    def test_passes_knobs_through_to_the_engine(self):
        class RecordingEngine:
            store = None

            def __init__(self):
                self.call = None

            def run_many(self, jobs, *args, **kwargs):
                self.call = (args, kwargs)
                return list(jobs)

        engine = RecordingEngine()

        async def drive():
            executor = Executor(engine=engine, retries=2)
            try:
                return await executor.execute(["job"])
            finally:
                await executor.drain()

        assert asyncio.run(drive()) == ["job"]
        # Always one worker (in-process), whatever the engine default.
        assert engine.call == ((1,), {"retries": 2})
        assert Executor(engine=engine, retries=2).snapshot() == {
            "retries": 2
        }


class TestShutdownSentinel:
    def test_sentinel_mid_batch_is_requeued_behind_live_work(self):
        """A sentinel drained into the middle of a batch is put back at
        the tail, so jobs already enqueued behind it still run before
        the loop exits."""

        class EchoExecutor:
            engine = None

            async def execute(self, jobs):
                return [("ok",)] * len(jobs)

        async def drive():
            metrics = scope()
            admission = Admission(
                max_queue=8, metrics=metrics, retry_after=lambda d: 0.1
            )
            coalescer = Coalescer(metrics=metrics)
            batcher = Batcher(
                max_batch=8, retry_after_floor=0.25,
                clock=FakeClock(), metrics=metrics,
            )
            loop = asyncio.get_running_loop()
            first = make_pending(loop, key=("k", 0))
            second = make_pending(loop, key=("k", 1))
            coalescer.register(first)
            coalescer.register(second)
            # Queue: [first, SHUTDOWN, second] — the sentinel sits in
            # the middle of what one batch drain would sweep up.
            await admission.offer(first, wait=False)
            await admission.push_shutdown()
            await admission.offer(second, wait=False)
            batcher.start(admission, coalescer, EchoExecutor())
            assert await first.future == ("ok",)
            assert await second.future == ("ok",)
            if batcher._task is not None:
                await batcher._task  # exits on the requeued sentinel
            assert admission.depth == 0
            await admission.drain()

        asyncio.run(drive())

    def test_shutdown_sentinel_is_a_singleton(self):
        assert SHUTDOWN is SHUTDOWN
        assert not isinstance(SHUTDOWN, Pending)
