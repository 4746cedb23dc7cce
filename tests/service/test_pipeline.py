"""Tests for the request pipeline: coalescing, caching, backpressure.

These drive :class:`~repro.service.pipeline.SimulationService` directly
(no HTTP), mostly against stub engines so each test controls exactly
when the engine produces results.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.pipeline import (
    Backpressure,
    ServiceConfig,
    ServiceError,
    SimulationFailed,
    SimulationService,
)
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.engine import FailedJob, SimJob, StagedEngine
from repro.sim.store import ResultStore

SYSTEM = SystemConfig(sample_blocks=100)


def job_for(app: str = "Ocean", **system_fields) -> SimJob:
    return SimJob.of(app, SchemeConfig(), SYSTEM.with_(**system_fields))


class StubEngine:
    """An engine double: records batches and the threads they ran on,
    answers from a function.

    Like the real engine, successful results are memoized into the
    store (the pipeline's read-through cache relies on that).
    """

    def __init__(self, respond=None, gate: threading.Event | None = None):
        self.store = ResultStore()
        self.batches: list[list[SimJob]] = []
        self.threads: list[threading.Thread] = []
        self.gate = gate
        self._respond = respond if respond is not None else (
            lambda job: ("result", job.app.name)
        )

    def run_many(self, jobs, max_workers=None, retries=1):
        from repro.sim import stages

        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never opened"
        self.batches.append(list(jobs))
        self.threads.append(threading.current_thread())
        results = [self._respond(job) for job in jobs]
        for job, result in zip(jobs, results):
            if not isinstance(result, FailedJob):
                key = stages.run_key(job.app, job.scheme, job.system)
                self.store.put(key, result)
        return results


class TestCoalescing:
    def test_concurrent_duplicates_share_one_computation(self):
        engine = StubEngine()
        job = job_for()

        async def drive():
            async with SimulationService(engine=engine) as service:
                results = await asyncio.gather(
                    *(service.submit(job) for _ in range(8))
                )
                return results, service.snapshot()

        results, snap = asyncio.run(drive())
        assert all(result == results[0] for result in results)
        # One engine job served all eight requests.
        assert sum(len(batch) for batch in engine.batches) == 1
        assert snap["counters"]["coalesced_total"] == 7
        assert snap["derived"]["coalesce_hit_rate"] == pytest.approx(7 / 8)

    def test_distinct_configs_do_not_coalesce(self):
        engine = StubEngine()
        jobs = [job_for(sample_blocks=100 + i) for i in range(3)]

        async def drive():
            async with SimulationService(engine=engine) as service:
                await asyncio.gather(*(service.submit(j) for j in jobs))
                return service.snapshot()

        snap = asyncio.run(drive())
        assert snap["counters"].get("coalesced_total", 0) == 0
        assert sum(len(batch) for batch in engine.batches) == 3

    def test_results_match_direct_engine_exactly(self):
        """Determinism: the pipeline must return the engine's results
        bit-for-bit, however requests were coalesced or batched."""
        job = job_for()
        direct = StagedEngine(ResultStore()).run(job.app, job.scheme, job.system)

        async def drive():
            async with SimulationService(
                engine=StagedEngine(ResultStore())
            ) as service:
                return await asyncio.gather(
                    *(service.submit(job) for _ in range(4))
                )

        for served in asyncio.run(drive()):
            assert served == direct

    def test_repeat_request_hits_the_store(self):
        engine = StubEngine()
        job = job_for()

        async def drive():
            async with SimulationService(engine=engine) as service:
                first = await service.submit(job)
                second = await service.submit(job)
                return first, second, service.snapshot()

        first, second, snap = asyncio.run(drive())
        assert first == second
        assert snap["counters"]["store_hits_total"] == 1
        assert sum(len(batch) for batch in engine.batches) == 1


class TestStoreAtStop:
    """A clean stop saves a store that has a path, so a restarted
    service starts warm."""

    @staticmethod
    def _serve_once(engine, job):
        async def drive():
            async with SimulationService(engine=engine) as service:
                await service.submit(job)
                return service.snapshot()["counters"]

        return asyncio.run(drive())

    def test_a_restarted_service_answers_from_the_saved_store(self, tmp_path):
        path = tmp_path / "store.pkl"
        job = job_for()
        first = StubEngine()
        first.store = ResultStore(path)
        self._serve_once(first, job)
        assert len(first.batches) == 1
        restarted = StubEngine()
        restarted.store = ResultStore(path)
        counters = self._serve_once(restarted, job)
        assert counters["store_hits_total"] == 1
        assert restarted.batches == []

    def test_a_refused_save_warns_and_stops_cleanly(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        engine = StubEngine()
        engine.store = ResultStore(blocker / "store.pkl")
        with pytest.warns(RuntimeWarning, match="could not save result store"):
            self._serve_once(engine, job_for())
        assert blocker.read_text() == ""


class TestBackpressure:
    def test_queue_full_raises_backpressure(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        config = ServiceConfig(max_queue=1)

        async def drive():
            async with SimulationService(engine=engine, config=config) as service:
                # First job: picked up by the batcher, blocked on the gate.
                blocked = asyncio.ensure_future(
                    service.submit(job_for(sample_blocks=101))
                )
                await asyncio.sleep(0.05)
                # Second job: sits in the (size-1) queue.
                queued = asyncio.ensure_future(
                    service.submit(job_for(sample_blocks=102))
                )
                await asyncio.sleep(0.05)
                # Third job: no room left.
                with pytest.raises(Backpressure) as excinfo:
                    await service.submit(job_for(sample_blocks=103))
                rejection = excinfo.value
                gate.set()
                await asyncio.gather(blocked, queued)
                return rejection, service.snapshot()

        rejection, snap = asyncio.run(drive())
        assert rejection.retry_after_s > 0
        assert rejection.queue_depth >= 1
        assert snap["counters"]["rejected_total"] == 1

    def test_wait_true_blocks_instead_of_rejecting(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        config = ServiceConfig(max_queue=1)

        async def drive():
            async with SimulationService(engine=engine, config=config) as service:
                pending = [
                    asyncio.ensure_future(
                        service.submit(job_for(sample_blocks=110 + i), wait=True)
                    )
                    for i in range(4)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                results = await asyncio.gather(*pending)
                return results, service.snapshot()

        results, snap = asyncio.run(drive())
        assert len(results) == 4
        assert snap["counters"].get("rejected_total", 0) == 0

    def test_retry_after_floor_applies_when_no_latency_observed(self):
        config = ServiceConfig(retry_after_s=0.5)
        service = SimulationService(engine=StubEngine(), config=config)
        assert service.batcher.suggest_retry_after(0) == 0.5


class TestFailures:
    def test_failed_job_surfaces_as_simulation_failed(self):
        engine = StubEngine(
            respond=lambda job: FailedJob(
                job=job, reason="error", error="boom traceback", attempts=2
            )
        )

        async def drive():
            async with SimulationService(engine=engine) as service:
                with pytest.raises(SimulationFailed) as excinfo:
                    await service.submit(job_for())
                return excinfo.value, service.snapshot()

        failure, snap = asyncio.run(drive())
        assert failure.reason == "error"
        assert failure.attempts == 2
        assert "boom" in failure.detail
        assert snap["counters"]["failed_error_total"] == 1

    def test_engine_infrastructure_crash_fails_the_batch(self):
        class ExplodingEngine(StubEngine):
            def run_many(self, jobs, *args, **kwargs):
                raise OSError("engine melted")

        async def drive():
            async with SimulationService(engine=ExplodingEngine()) as service:
                with pytest.raises(SimulationFailed):
                    await service.submit(job_for())

        asyncio.run(drive())

    def test_submit_on_stopped_service_rejected(self):
        async def drive():
            service = SimulationService(engine=StubEngine())
            with pytest.raises(ServiceError, match="not running"):
                await service.submit(job_for())

        asyncio.run(drive())

    def test_oversized_sweep_rejected_up_front(self):
        config = ServiceConfig(max_sweep_jobs=2)

        async def drive():
            async with SimulationService(
                engine=StubEngine(), config=config
            ) as service:
                with pytest.raises(ServiceError, match="cap"):
                    await service.submit_many(
                        [job_for(sample_blocks=120 + i) for i in range(3)]
                    )

        asyncio.run(drive())


class DrainTaskKilled(BaseException):
    """Not an ``Exception``: escapes the executor's failure net and
    kills the drain task."""


class TestDrainTaskDeath:
    def test_every_waiter_fails_fast_and_hits_still_serve(self):
        """No waiter hangs when the drain task dies: coalesced
        duplicates on the dying batch, a queued job and a sweep blocked
        on the full queue all fail within a second; afterwards a miss
        fails fast, a store hit is still served, and stop() completes
        without leaving a task behind."""

        async def drive():
            in_flight = asyncio.Event()
            release = asyncio.Event()

            async def intercept(jobs):
                if jobs[0].system.sample_blocks == 101:
                    in_flight.set()
                    await release.wait()
                    raise DrainTaskKilled()

            service = SimulationService(
                engine=StubEngine(),
                config=ServiceConfig(max_queue=1),
                interceptor=intercept,
            )
            await service.start()
            stored = await service.submit(job_for(sample_blocks=100))

            duplicates = [
                asyncio.ensure_future(
                    service.submit(job_for(sample_blocks=101))
                )
                for _ in range(3)
            ]
            await asyncio.wait_for(in_flight.wait(), timeout=5)
            queued = asyncio.ensure_future(
                service.submit(job_for(sample_blocks=102))
            )
            await asyncio.sleep(0)  # takes the one queue slot
            sweep = asyncio.ensure_future(
                service.submit_many(
                    [job_for(sample_blocks=103), job_for(sample_blocks=104)]
                )
            )
            await asyncio.sleep(0.05)
            assert service.admission.depth == 1
            assert not sweep.done()  # blocked on the full queue

            release.set()
            waiters = [*duplicates, queued, sweep]
            _, hung = await asyncio.wait(waiters, timeout=1.0)
            assert not hung
            for waiter in waiters:
                with pytest.raises(ServiceError, match="drain task died"):
                    waiter.result()

            with pytest.raises(ServiceError, match="drain task has died"):
                await asyncio.wait_for(
                    service.submit(job_for(sample_blocks=105)), timeout=1.0
                )
            assert await service.submit(job_for(sample_blocks=100)) == stored
            assert service.snapshot()["stages"]["coalescer"]["inflight"] == 0

            await asyncio.wait_for(service.stop(), timeout=5)
            await asyncio.sleep(0.01)  # let cancelled puts unwind
            return [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]

        assert asyncio.run(drive()) == []

    def test_stop_completes_when_the_task_dies_during_shutdown(self):
        async def drive():
            in_flight = asyncio.Event()
            release = asyncio.Event()

            async def intercept(jobs):
                in_flight.set()
                await release.wait()
                raise DrainTaskKilled()

            service = SimulationService(
                engine=StubEngine(),
                interceptor=intercept,
            )
            await service.start()
            doomed = asyncio.ensure_future(
                service.submit(job_for(sample_blocks=106))
            )
            await asyncio.wait_for(in_flight.wait(), timeout=5)
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.01)  # the sentinel waits behind the batch
            release.set()
            await asyncio.wait_for(stopping, timeout=5)
            with pytest.raises(ServiceError, match="drain task died"):
                await asyncio.wait_for(doomed, timeout=1)

        asyncio.run(drive())


class TestBatching:
    def test_queued_jobs_batch_together(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        config = ServiceConfig(max_batch=8)

        async def drive():
            async with SimulationService(engine=engine, config=config) as service:
                pending = [
                    asyncio.ensure_future(
                        service.submit(job_for(sample_blocks=130 + i))
                    )
                    for i in range(5)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                await asyncio.gather(*pending)
                return service.snapshot()

        snap = asyncio.run(drive())
        # The gate holds the first batch; by the time it runs, the rest
        # are queued, so the 5 jobs need at most 2 engine batches.
        assert snap["counters"]["batches_total"] <= 2
        assert snap["counters"]["engine_jobs_total"] == 5

    def test_max_batch_bounds_batch_size(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        config = ServiceConfig(max_batch=2)

        async def drive():
            async with SimulationService(engine=engine, config=config) as service:
                pending = [
                    asyncio.ensure_future(
                        service.submit(job_for(sample_blocks=140 + i))
                    )
                    for i in range(6)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                await asyncio.gather(*pending)

        asyncio.run(drive())
        assert all(len(batch) <= 2 for batch in engine.batches)

    def test_stop_fails_jobs_stranded_behind_the_sentinel(self):
        """A waiter whose blocked put lands after the shutdown sentinel
        (a sweep throttling on a full queue during shutdown) must get a
        loud failure, never a hung future."""
        from repro.service.stages import Pending

        async def drive():
            service = SimulationService(engine=StubEngine())
            await service.start()
            pending = Pending(
                key=("stranded",),
                job=job_for(sample_blocks=150),
                future=asyncio.get_running_loop().create_future(),
            )
            admission = service.admission
            stop_task = asyncio.ensure_future(service.stop())
            while admission._queue.qsize() == 0:  # sentinel lands...
                await asyncio.sleep(0)  # ...before the put below
            admission._queue.put_nowait(pending)
            await stop_task
            with pytest.raises(ServiceError, match="stopped"):
                await pending.future

        asyncio.run(drive())


class TestEngineThread:
    """Misses run on the executor's one engine thread, dispatched
    without delay, and stop() leaves no engine thread behind."""

    def test_back_to_back_misses_share_one_engine_thread(self):
        engine = StubEngine()

        async def drive():
            async with SimulationService(engine=engine) as service:
                for i in range(50):
                    await service.submit(job_for(sample_blocks=200 + i))

        asyncio.run(drive())
        assert sum(len(batch) for batch in engine.batches) == 50
        assert len({thread.ident for thread in engine.threads}) == 1
        thread = engine.threads[0]
        assert thread is not threading.main_thread()
        assert thread.name.startswith("repro-engine")

    def test_stop_joins_the_engine_thread(self):
        engine = StubEngine()

        async def drive():
            service = SimulationService(engine=engine)
            await service.start()
            await service.submit(job_for(sample_blocks=300))
            assert engine.threads[0].is_alive()
            await service.stop()
            return threading.enumerate()

        alive = asyncio.run(drive())
        (thread,) = engine.threads
        assert not thread.is_alive()
        assert thread not in alive
        assert not [t for t in alive if t.name.startswith("repro-engine")]

    def test_a_restarted_service_still_serves_misses(self):
        engine = StubEngine()

        async def drive():
            service = SimulationService(engine=engine)
            results = []
            for i in range(2):
                await service.start()
                results.append(
                    await service.submit(job_for(sample_blocks=310 + i))
                )
                await service.stop()
            return results

        assert asyncio.run(drive()) == [("result", "Ocean")] * 2
        assert len(engine.batches) == 2
        first, second = engine.threads
        assert first is not second
        assert not first.is_alive() and not second.is_alive()

    def test_a_lone_miss_is_dispatched_without_sleeping(self, monkeypatch):
        """On an idle stack the batcher hands the first job to the
        executor at once: no sleep on the loop waiting for company."""
        engine = StubEngine()
        sleeps: list[float] = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        async def drive():
            async with SimulationService(engine=engine) as service:
                await real_sleep(0)  # the batcher parks on the empty queue
                monkeypatch.setattr(asyncio, "sleep", recording_sleep)
                try:
                    return await service.submit(job_for(sample_blocks=320))
                finally:
                    monkeypatch.undo()

        assert asyncio.run(drive()) == ("result", "Ocean")
        assert len(engine.batches) == 1
        assert sleeps == []
