"""Tests for stack supervision: crash detection, restart, re-submit.

These crash the stage stack on purpose — via the executor's interceptor
hook, the same plug point the chaos harness uses — and assert the
supervisor's contract: stranded work resolves (correctly re-submitted
or loudly failed, never hung), the crashed stack comes back, restarts
back off, and shutdown leaves no orphans.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.pipeline import (
    ServiceConfig,
    ServiceError,
    ShardUnavailable,
    SimulationService,
)
from repro.service.stages import BatchCrash
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.engine import SimJob
from repro.sim.store import ResultStore


def job_for(blocks: int) -> SimJob:
    return SimJob.of(
        "Ocean", SchemeConfig(), SystemConfig(sample_blocks=blocks)
    )


async def wait_for_restarts(
    service: SimulationService, count: int, timeout: float = 5.0
) -> None:
    """Park until the supervisor has completed ``count`` restarts.

    Tests asserting on recovery counters wait for them explicitly
    rather than rely on how recovery and their result interleave.
    """
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        counters = service.metrics.snapshot()["counters"]
        if counters.get("supervisor_restarts", 0) >= count:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"supervisor never completed {count} restart(s)")


class StubEngine:
    def __init__(self):
        self.store = ResultStore()
        self.batches = []

    def run_many(self, jobs, *args, **kwargs):
        from repro.sim import stages

        self.batches.append(list(jobs))
        results = [("result", job.system.sample_blocks) for job in jobs]
        for job, result in zip(jobs, results):
            self.store.put(
                stages.run_key(job.app, job.scheme, job.system), result
            )
        return results


class CrashOnce:
    """An interceptor that kills the first ``times`` batches."""

    def __init__(self, times: int = 1):
        self.remaining = times
        self.crashes = 0

    async def intercept(self, jobs):
        if self.remaining > 0:
            self.remaining -= 1
            self.crashes += 1
            raise BatchCrash("test crash")


FAST = dict(
    supervisor_interval_s=0.01,
    restart_backoff_s=0.01,
    restart_max_backoff_s=0.2,
    batch_linger_s=0.0,
)


class TestRecovery:
    def test_crashed_batch_is_rerouted_and_resolves(self):
        """A request caught mid-batch by a crash still gets its answer,
        routed again through the restarted stack, which comes back
        with its breaker closed."""
        chaos = CrashOnce()
        engine = StubEngine()
        config = ServiceConfig(**FAST)

        async def drive():
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                result = await asyncio.wait_for(
                    service.submit(job_for(150)), timeout=10
                )
                await wait_for_restarts(service, 1)
                return result, service.snapshot()

        result, snap = asyncio.run(drive())
        assert result == ("result", 150)
        assert chaos.crashes == 1
        assert snap["counters"]["supervisor_restarts"] == 1
        assert snap["supervisor"]["crashes"] == 1
        assert snap["breaker"]["state"] == "closed"
        assert snap["stages"]["batcher"]["running"] is True
        assert [len(batch) for batch in engine.batches] == [1]

    def test_single_shard_crash_holds_work_until_restart(self):
        """Stranded work waits for the restarted stack instead of
        failing: by the time it resolves, the restart has happened."""
        chaos = CrashOnce()
        engine = StubEngine()
        config = ServiceConfig(**FAST)

        async def drive():
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                result = await asyncio.wait_for(
                    service.submit(job_for(100)), timeout=10
                )
                restarts = service.metrics.counter("supervisor_restarts")
                return result, restarts.value

        result, restarts_at_resolution = asyncio.run(drive())
        assert result == ("result", 100)
        assert chaos.crashes == 1
        assert restarts_at_resolution == 1

    def test_coalesced_waiters_all_resolve_after_crash(self):
        chaos = CrashOnce()
        engine = StubEngine()
        config = ServiceConfig(**FAST)

        async def drive():
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.submit(job_for(100)) for _ in range(6))
                    ),
                    timeout=10,
                )
                return results

        results = asyncio.run(drive())
        assert all(result == ("result", 100) for result in results)

    def test_repeated_crashes_back_off_exponentially(self):
        """Consecutive crashes double the restart delay (bounded),
        visible in recovery latency."""
        chaos = CrashOnce(times=3)
        engine = StubEngine()
        config = ServiceConfig(
            supervisor_interval_s=0.01,
            restart_backoff_s=0.05,
            restart_max_backoff_s=0.2,
            batch_linger_s=0.0,
        )

        async def drive():
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                result = await asyncio.wait_for(
                    service.submit(job_for(100)), timeout=10
                )
                await wait_for_restarts(service, 3)
                snap = service.snapshot()
                return result, snap

        result, snap = asyncio.run(drive())
        assert result == ("result", 100)
        assert chaos.crashes == 3
        assert snap["counters"]["supervisor_restarts"] == 3
        latency = snap["histograms"]["supervisor_recovery_latency_s"]
        # Backoffs were 0.05, 0.10, 0.20: the third recovery must be
        # measurably slower than the first.
        assert latency["max"] >= latency["min"] * 2

    def test_store_hits_keep_serving_while_stack_restarts(self):
        """While the crashed stack waits out its restart backoff, the
        forced-open breaker sheds engine work with ShardUnavailable but
        cached results are still served."""
        chaos = CrashOnce()
        engine = StubEngine()
        config = ServiceConfig(
            supervisor_interval_s=0.01,
            restart_backoff_s=0.5,
            restart_max_backoff_s=0.5,
            batch_linger_s=0.0,
        )

        async def drive():
            async with SimulationService(
                engine=engine, config=config,
            ) as service:
                cached = await service.submit(job_for(100))
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                victim = asyncio.ensure_future(service.submit(job_for(101)))
                for _ in range(1000):
                    if service.supervisor.snapshot()["crashes"]:
                        break
                    await asyncio.sleep(0.005)
                assert await service.submit(job_for(100)) == cached
                with pytest.raises(ShardUnavailable):
                    await service.submit(job_for(102))
                return await asyncio.wait_for(victim, timeout=10)

        assert asyncio.run(drive()) == ("result", 101)
        assert chaos.crashes == 1


class TestShutdownHygiene:
    def test_stop_settles_inflight_reroutes(self):
        """Stopping the service mid-recovery fails stranded futures
        loudly instead of leaking re-submit tasks."""
        gate = threading.Event()

        class GatedEngine(StubEngine):
            def run_many(self, jobs, *args, **kwargs):
                assert gate.wait(timeout=30)
                return super().run_many(jobs, *args, **kwargs)

        chaos = CrashOnce()
        engine = GatedEngine()
        config = ServiceConfig(**FAST)

        async def drive():
            service = SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            )
            await service.start()
            victim = asyncio.ensure_future(service.submit(job_for(100)))
            # Wait until the crash has been detected and recovery is
            # under way (the re-submit is parked behind the gate).
            for _ in range(1000):
                if chaos.crashes and service.supervisor.snapshot()[
                    "resubmits_inflight"
                ]:
                    break
                await asyncio.sleep(0.005)
            # Stop concurrently: supervisor.stop cancels the parked
            # re-submit first; then open the gate so the drain's
            # in-flight engine batch can finish.
            stop_task = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.05)
            gate.set()
            await stop_task
            with pytest.raises(ServiceError):
                await victim
            return service.supervisor.snapshot()

        snap = asyncio.run(drive())
        assert snap["resubmits_inflight"] == 0
        assert snap["running"] is False

    def test_stop_during_restart_backoff_fails_held_work(self):
        """Stopping the service while a crashed stack waits out its
        restart backoff fails the held work loudly instead of leaving
        its waiters hanging."""
        chaos = CrashOnce()
        config = ServiceConfig(
            supervisor_interval_s=0.01,
            restart_backoff_s=30.0,
            restart_max_backoff_s=30.0,
            batch_linger_s=0.0,
        )

        async def drive():
            service = SimulationService(
                engine=StubEngine(), config=config,
                interceptor=chaos.intercept,
            )
            await service.start()
            victim = asyncio.ensure_future(service.submit(job_for(100)))
            for _ in range(1000):
                if service.supervisor.snapshot()["crashes"]:
                    break
                await asyncio.sleep(0.005)
            await asyncio.wait_for(service.stop(), timeout=5)
            with pytest.raises(ServiceError, match="stopped"):
                await asyncio.wait_for(victim, timeout=5)
            return service.supervisor.snapshot()

        snap = asyncio.run(drive())
        assert snap["crashes"] == 1
        assert snap["running"] is False

    def test_supervisor_restarts_counter_exported(self):
        chaos = CrashOnce()
        engine = StubEngine()
        config = ServiceConfig(**FAST)

        async def drive():
            async with SimulationService(
                engine=engine, config=config, interceptor=chaos.intercept,
            ) as service:
                await asyncio.wait_for(
                    service.submit(job_for(100)), timeout=10
                )
                await wait_for_restarts(service, 1)
                return service.snapshot()

        snap = asyncio.run(drive())
        assert snap["counters"]["supervisor_restarts"] == 1
        assert snap["histograms"]["supervisor_recovery_latency_s"][
            "count"
        ] == 1
        assert not any(
            name.startswith("shard_")
            for block in ("counters", "gauges", "histograms")
            for name in snap[block]
        )
