"""The service's request pipeline: admit, coalesce, batch, serve.

One :class:`SimulationService` owns one wired stack of the composable
stages from :mod:`repro.service.stages` — Admission, Coalescer,
Batcher, Executor.  The full request path:

1. **read-through cache** — a request whose canonical
   :func:`~repro.sim.stages.run_key` is already in the engine's
   :class:`~repro.sim.store.ResultStore` is answered immediately;
2. **coalescing** — identical configurations *in flight* share one
   computation: the first request enqueues a job, the rest await the
   same future (``coalesced_total`` counts the sharers);
3. **admission control** — the pending queue is bounded; a request that
   cannot be enqueued raises
   :class:`~repro.service.stages.Backpressure` with a suggested
   retry-after derived from observed latency, which the HTTP layer
   turns into a ``429`` (the service never silently queues unbounded
   work or hangs a connection);
4. **batching** — the batcher task drains the queue into
   :meth:`~repro.sim.engine.StagedEngine.run_many` calls: it dispatches
   as soon as it takes a job, with whatever else is already queued (up
   to ``max_batch``), and never waits for company;
5. **failure isolation** — the executor runs each batch on its one
   engine thread, and the hardened engine turns job failures into
   typed :class:`~repro.sim.engine.FailedJob` slots, which surface here
   as :class:`~repro.service.stages.SimulationFailed` — a structured
   error response, never a hung connection.

If the batcher's drain task ever dies, every waiter fails with
:class:`~repro.service.stages.ServiceError` (see
:mod:`repro.service.stages`); from then on the service still answers
store hits, refuses engine work with ``ServiceError``, and reports
itself unhealthy, so the process is restarted rather than the stack.

Batches run in-process on the executor's one engine thread: a job
costs about a millisecond, so a process pool per batch costs more than
it saves, and extra stacks in one process would share the one event
loop, GIL, and engine.  ``/sweep`` requests ride the same path through
:meth:`SimulationService.submit_many`.

Every clock read goes through the injectable
:class:`~repro.service.clock.Clock` (see that module for the lint
story).  Determinism: the pipeline only ever *routes* work to the
engine — results are the engine's, bit-for-bit, no matter which tier
(store, coalescing map, fresh batch) served them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterable

from repro.sim import stages as sim_stages
from repro.sim.engine import FailedJob, SimJob, StagedEngine
from repro.sim.metrics import RunResult
from repro.service.clock import MONOTONIC_CLOCK, Clock
from repro.service.metrics import MetricsRegistry
from repro.service.stages import (
    Admission,
    Backpressure,
    Batcher,
    Coalescer,
    DeadlineExceeded,
    Executor,
    Pending,
    ServiceError,
    SimulationFailed,
)
from repro.sim.store import StoreKey

__all__ = [
    "Backpressure",
    "DeadlineExceeded",
    "ServiceConfig",
    "ServiceError",
    "SimulationFailed",
    "SimulationService",
]

#: An async hook awaited by the executor before each engine dispatch;
#: see :class:`~repro.service.stages.Executor`.
Interceptor = Callable[[list[SimJob]], Awaitable[None]]

#: Marks a key the store does not hold.
_ABSENT = object()


def _consume_exception(future: "asyncio.Future") -> None:
    """Mark a done future's exception retrieved (waiters detached)."""
    if not future.cancelled():
        future.exception()


@dataclass(frozen=True)
class ServiceConfig:
    """Every operational knob of the pipeline.

    Attributes:
        max_queue: Pending (not yet batched) jobs held before rejecting
            new work with :class:`~repro.service.stages.Backpressure`.
        max_batch: Largest job count handed to one ``run_many`` call.
        retry_after_s: Floor of the retry-after hint sent with a
            rejection; scaled up by observed latency and queue depth.
        max_sweep_jobs: Largest job count one sweep request may expand
            to (sweeps self-throttle through the queue rather than
            being rejected, so this bounds their footprint).
        retries: Engine-level re-attempts per job.
        default_deadline_s: Deadline budget applied to requests that
            do not carry one (``None`` = unbounded, the default).
    """

    max_queue: int = 128
    max_batch: int = 16
    retry_after_s: float = 0.25
    max_sweep_jobs: int = 1024
    retries: int = 1
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0 when set, "
                f"got {self.default_deadline_s}"
            )


class SimulationService:
    """The async request pipeline in front of a :class:`StagedEngine`.

    Args:
        engine: The engine to drive (default: a fresh one over the
            process-wide store).
        config: Operational knobs; see :class:`ServiceConfig`.
        clock: Monotonic time source (tests inject a fake).
        metrics: Registry to record into (default: a private one).
        interceptor: Optional batch hook for the executor (tests use
            it to inject latency); see
            :class:`~repro.service.stages.Executor`.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  All methods must be called from the
    event loop the service was started on.
    """

    def __init__(
        self,
        engine: StagedEngine | None = None,
        config: ServiceConfig | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        interceptor: Interceptor | None = None,
    ) -> None:
        self.engine = engine if engine is not None else StagedEngine()
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.executor = Executor(
            engine=self.engine,
            retries=self.config.retries,
            interceptor=interceptor,
        )
        self.batcher = Batcher(
            max_batch=self.config.max_batch,
            retry_after_floor=self.config.retry_after_s,
            clock=self.clock,
            metrics=self.metrics,
        )
        self.admission = Admission(
            max_queue=self.config.max_queue,
            metrics=self.metrics,
            retry_after=self.batcher.suggest_retry_after,
            clock=self.clock,
        )
        self.coalescer = Coalescer(metrics=self.metrics)
        self._started = False

    @property
    def stages(self) -> tuple:
        """The stack's stages in pipeline order."""
        return (self.admission, self.coalescer, self.batcher, self.executor)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Spawn the batcher task; idempotent."""
        if self._started:
            return
        self._started = True
        self.batcher.start(self.admission, self.coalescer, self.executor)

    async def stop(self) -> None:
        """Drain the stages, then save the store.

        The batcher exits (completing its current batch; a dead drain
        task has already failed its waiters), admission fails anything
        stranded behind the sentinel, and the coalescing map clears.
        Last, a store with a path (``REPRO_RESULT_STORE`` for the
        process-wide one) is saved, so a restarted service starts warm;
        see :meth:`~repro.sim.store.ResultStore.persist`.
        """
        if not self._started:
            return
        self._started = False
        # Shutdown path, bounded by the sentinel protocol: the batcher
        # exits at the sentinel and the later stages fail-fast anything
        # stranded rather than waiting on it.
        await self.batcher.drain()  # lint-ok: R006
        await self.admission.drain()  # lint-ok: R006
        await self.coalescer.drain()  # lint-ok: R006
        await self.executor.drain()  # lint-ok: R006
        # Saved on the loop: with the stages drained no batch inserts
        # into the store, and nothing is left on the loop to delay.
        self.engine.store.persist()

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- the request path ----------------------------------------------

    def _absolute_deadline(self, deadline_s: float | None) -> float | None:
        """An absolute monotonic deadline from a relative budget,
        falling back to the configured default budget."""
        budget = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if budget is None:
            return None
        return self.clock.monotonic() + budget

    async def submit(
        self,
        job: SimJob,
        wait: bool = False,
        deadline_s: float | None = None,
    ) -> RunResult:
        """Serve one canonicalized job through the full pipeline.

        Args:
            job: The canonical configuration to simulate.
            wait: When the queue is full, ``False`` (the default, used
                for external requests) raises
                :class:`~repro.service.stages.Backpressure`; ``True``
                (used by internal fan-outs like sweeps) awaits queue
                space instead, so a large expansion throttles itself
                rather than being rejected.
            deadline_s: Remaining budget in seconds (``None`` uses the
                configured default; both ``None`` = unbounded).  The
                deadline propagates through every stage: admission
                refuses spent budgets, the batcher cancels jobs no
                waiter can use, and the await gives up at the deadline
                even mid-computation.

        Raises:
            Backpressure: Queue full and ``wait`` is false.
            DeadlineExceeded: The budget ran out before a result.
            SimulationFailed: The engine gave up on the job.
            ServiceError: The service is stopped, or its drain task
                died and the job needs the engine.
        """
        if not self._started:
            raise ServiceError("service is not running (call start())")
        started = self.clock.monotonic()
        key = sim_stages.run_key(job.app, job.scheme, job.system)
        deadline = self._absolute_deadline(deadline_s)
        result = await self.serve_key(key, job, wait, deadline)
        return self._respond(started, result)

    async def serve_key(
        self,
        key: StoreKey,
        job: SimJob,
        wait: bool,
        deadline: float | None = None,
    ) -> RunResult:
        """Serve one keyed job through the stage stack.

        Args:
            key: The canonical run_key (the coalescing handle).
            job: The configuration to simulate.
            wait: Await queue space instead of raising
                :class:`Backpressure` when the queue is full.
            deadline: Absolute monotonic deadline, or ``None`` for
                unbounded.

        Raises:
            ServiceError: The drain task died (store hits are still
                served — they never touch the engine).
            DeadlineExceeded: The budget ran out before a result.
        """
        self.metrics.counter("requests_total").inc()
        stored = self.engine.store.get(key, _ABSENT)
        if stored is not _ABSENT:
            self.metrics.counter("store_hits_total").inc()
            return stored
        if not self.batcher.running:
            raise ServiceError("the service's drain task has died")
        return await self._enqueue(key, job, wait, deadline)

    async def _enqueue(
        self,
        key: StoreKey,
        job: SimJob,
        wait: bool,
        deadline: float | None,
    ) -> RunResult:
        pending = self.coalescer.join(key)
        if pending is not None:
            # A later joiner may extend the job's lifetime: the batcher
            # cancels only when no waiter can use the result.
            pending.extend_deadline(deadline)
            return await self._await_result(pending, deadline)
        pending = Pending(
            key=key, job=job,
            future=asyncio.get_running_loop().create_future(),
            deadline=deadline,
        )
        if wait:
            # Register before the (possibly blocking) put so duplicates
            # arriving while we wait for queue space still coalesce.
            self.coalescer.register(pending)
            try:
                await self.admission.offer(pending, wait=True)
            except ServiceError:
                # Never leave a never-to-run future in the map.
                self.coalescer.resolve(key)
                raise
        else:
            # Offer first: a Backpressure rejection must not leave a
            # never-to-run future in the coalescing map.
            await self.admission.offer(pending, wait=False)
            self.coalescer.register(pending)
        return await self._await_result(pending, deadline)

    async def _await_result(
        self, pending: Pending, deadline: float | None
    ) -> RunResult:
        # shield(): many requests await one future; one caller being
        # cancelled (client disconnect) or timing out must not cancel
        # the shared computation out from under the others.
        if deadline is None:
            result = await asyncio.shield(pending.future)  # lint-ok: R006
        else:
            remaining = deadline - self.clock.monotonic()
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(pending.future), timeout=remaining
                )
            except asyncio.TimeoutError:
                self.metrics.counter("deadline_expirations").inc()
                # This caller is detaching; if no other waiter remains,
                # the shared future's eventual exception must not rot
                # into an "exception was never retrieved" warning.
                pending.future.add_done_callback(_consume_exception)
                raise DeadlineExceeded("awaiting result") from None
        if isinstance(result, FailedJob):
            raise SimulationFailed(
                reason=result.reason,
                detail=result.error,
                attempts=result.attempts,
            )
        return result

    async def submit_many(
        self,
        jobs: Iterable[SimJob],
        deadline_s: float | None = None,
    ) -> list[RunResult]:
        """Submit a set of jobs concurrently, preserving order.

        Used by sweep requests: every job rides the same coalescing and
        batching machinery as individual requests (a concurrent client
        asking for one of the sweep's points shares its computation).
        Jobs beyond the queue bound throttle the caller instead of
        being rejected; an oversized expansion raises
        :class:`~repro.service.stages.ServiceError` up front.  An
        optional ``deadline_s`` budget applies to every point of the
        fan-out.
        """
        jobs = list(jobs)
        if len(jobs) > self.config.max_sweep_jobs:
            raise ServiceError(
                f"sweep expands to {len(jobs)} jobs, over the "
                f"configured cap of {self.config.max_sweep_jobs}"
            )
        return list(
            await asyncio.gather(
                *(
                    self.submit(job, wait=True, deadline_s=deadline_s)
                    for job in jobs
                )
            )
        )

    def _respond(self, started: float, result: RunResult) -> RunResult:
        self.metrics.counter("responses_total").inc()
        self.metrics.histogram("service_latency_s").observe(
            self.clock.monotonic() - started
        )
        return result

    # -- observability -------------------------------------------------

    def snapshot(self) -> dict:
        """The metrics snapshot plus derived rates, store statistics,
        and each stage's state."""
        # The batcher updates the gauge only after it assembles a
        # batch; pin it to the true depth at snapshot time.
        self.metrics.gauge("queue_depth").set(self.admission.depth)
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        requests = counters.get("requests_total", 0)
        coalesced = counters.get("coalesced_total", 0)
        store_hits = counters.get("store_hits_total", 0)
        store_stats = self.engine.store.stats()
        snap["derived"] = {
            "coalesce_hit_rate": coalesced / requests if requests else 0.0,
            "store_hit_rate": store_hits / requests if requests else 0.0,
            "combined_hit_rate": (
                (coalesced + store_hits) / requests if requests else 0.0
            ),
        }
        snap["engine"] = {
            "store_entries": store_stats.size,
            "store_hits": store_stats.hits,
            "store_misses": store_stats.misses,
            "store_evictions": store_stats.evictions,
            "store_max_entries": store_stats.max_entries,
        }
        snap["stages"] = {stage.name: stage.snapshot() for stage in self.stages}
        return snap
