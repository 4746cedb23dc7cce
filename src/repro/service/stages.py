"""Composable pipeline stages: admission, coalescing, batching, execution.

The request path is four small stages, each behind the
:class:`PipelineStage` protocol, which
:class:`~repro.service.pipeline.SimulationService` wires into its one
stack:

* :class:`Admission` — the bounded intake queue.  A request that cannot
  be enqueued raises :class:`Backpressure` with a retry-after hint
  instead of queueing unbounded work;
* :class:`Coalescer` — the run_key-shared future map.  Identical
  configurations *in flight* share one computation;
* :class:`Batcher` — the drain loop.  Sizes each engine batch from the
  observed queue depth and lingers (briefly, and only when jobs are
  expensive enough for batching to pay) to let concurrent clients pile
  in; owns the per-job latency EMA that both the linger and the
  retry-after hint scale from;
* :class:`Executor` — engine dispatch.  Runs
  :meth:`~repro.sim.engine.StagedEngine.run_many` in-process on a
  worker thread, off the event loop, and turns engine-infrastructure
  crashes into :class:`~repro.sim.engine.FailedJob` slots, never a
  hung future.

Every stage implements the same protocol surface — a ``name``, a
``snapshot()`` of its operational state, and an async ``drain()`` for
shutdown — which ``repro lint`` rule R003 verifies stays in lock-step
across implementations (a stage that drifts from the protocol cannot
be wired into the stack).

**Deadlines** propagate through the stack: a :class:`Pending` carries
the latest absolute deadline any of its waiters can still use (the
coalescer extends it as later joiners arrive), admission refuses work
whose budget is already spent, and the batcher cancels queued jobs
that can no longer meet any waiter's deadline instead of burning an
engine slot on them.  Every cancellation lands on the
``deadline_expirations`` counter.

**No hung waiters**: if the batcher's drain task ever dies, a
done-callback logs the death once and fails every computation in the
coalescing map with :class:`ServiceError` — queued work, the batch
that was running, and sweep jobs still waiting for queue space.

**Chaos**: the :class:`Executor` accepts an optional async
``interceptor`` invoked before each engine dispatch.  An interceptor
that sleeps injects stage latency; one that raises an ``Exception``
produces typed :class:`~repro.sim.engine.FailedJob` slots.  Production
stacks leave it ``None``.

The structured error types (:class:`ServiceError`, :class:`Backpressure`,
:class:`SimulationFailed`, :class:`DeadlineExceeded`) live here with
the stages that raise them; :mod:`repro.service.pipeline` re-exports
them unchanged.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Protocol

from repro.service.clock import Clock
from repro.service.metrics import MetricsRegistry
from repro.sim.engine import FailedJob, SimJob, StagedEngine
from repro.sim.store import StoreKey

__all__ = [
    "Admission",
    "Backpressure",
    "Batcher",
    "Coalescer",
    "DeadlineExceeded",
    "Executor",
    "Pending",
    "PipelineStage",
    "SHUTDOWN",
    "ServiceError",
    "SimulationFailed",
]

_log = logging.getLogger("repro.service.stages")

#: Exponential-moving-average weight for per-job latency observations.
_EMA_ALPHA = 0.3

#: Fraction of the per-job latency the batcher is willing to linger for
#: more arrivals; cheap jobs get (almost) no linger, expensive jobs get
#: up to the configured cap.
_LINGER_FRACTION = 0.25

#: Queue sentinel: the batcher exits when it takes this item.
SHUTDOWN = object()


class ServiceError(Exception):
    """Base class for structured service-level failures."""


class Backpressure(ServiceError):
    """The pending queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, queue_depth: int) -> None:
        super().__init__(
            f"service queue is full ({queue_depth} pending); "
            f"retry in {retry_after_s:.2f}s"
        )
        self.retry_after_s = retry_after_s
        self.queue_depth = queue_depth


class SimulationFailed(ServiceError):
    """The engine could not produce a result for this job.

    Attributes:
        reason: The :class:`~repro.sim.engine.FailedJob` reason
            (``"error"``: the service runs jobs in-process, where
            nothing can time a job out).
        detail: Traceback text of the final attempt (may be empty).
        attempts: How many times the engine tried.
    """

    def __init__(self, reason: str, detail: str, attempts: int) -> None:
        super().__init__(f"simulation failed ({reason}) after "
                         f"{attempts} attempt(s)")
        self.reason = reason
        self.detail = detail
        self.attempts = attempts


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before a result could be served.

    Raised wherever the remaining budget runs out: at admission (spent
    before enqueueing), in the batcher (cancelled before dispatch), or
    while awaiting a shared computation.  The HTTP layer maps it to a
    structured ``504``.
    """

    def __init__(self, where: str) -> None:
        super().__init__(f"deadline exceeded ({where})")
        self.where = where


@dataclass
class Pending:
    """One enqueued computation and everyone waiting on it.

    ``deadline`` is the latest absolute (monotonic) deadline among the
    request's waiters, or ``None`` when any waiter is unbounded; the
    batcher cancels the job only when *no* waiter can use the result
    any more.
    """

    key: StoreKey
    job: SimJob
    future: asyncio.Future = field(repr=False)
    deadline: float | None = None

    def extend_deadline(self, deadline: float | None) -> None:
        """Fold one more waiter's deadline in (``None`` = unbounded)."""
        if deadline is None:
            self.deadline = None
        elif self.deadline is not None:
            self.deadline = max(self.deadline, deadline)


class PipelineStage(Protocol):
    """The contract every pipeline stage implements.

    A stage is a small, independently-testable unit of the request
    path.  Beyond its stage-specific operations, every stage exposes
    the same three-part surface so the service can wire, observe, and
    shut down its stack of stages uniformly — and so ``repro lint``
    rule R003 can hold implementations to the protocol signature:

    * ``name`` — a stable label used in snapshots and metrics;
    * ``snapshot()`` — a JSON-ready view of the stage's operational
      state (queue depth, in-flight count, latency EMA, ...);
    * ``drain()`` — release the stage's resources at shutdown; called
      in pipeline order, must be idempotent, and must never strand a
      waiter on an unresolved future.
    """

    name: str

    def snapshot(self) -> dict:
        """A JSON-ready view of the stage's operational state."""
        ...

    async def drain(self) -> None:
        """Release the stage's resources at shutdown (idempotent)."""
        ...


class Admission:
    """Stage 1: the bounded intake queue with explicit backpressure.

    Args:
        max_queue: Pending (not yet batched) jobs held before new work
            is rejected with :class:`Backpressure`.
        metrics: The service's metrics registry.
        retry_after: Maps the current queue depth to the retry-after
            hint sent with a rejection (wired to
            :meth:`Batcher.suggest_retry_after`, which scales the hint
            by the observed per-job latency).
    """

    name = "admission"

    def __init__(
        self,
        max_queue: int,
        metrics: MetricsRegistry,
        retry_after: Callable[[int], float],
        clock: Clock | None = None,
    ) -> None:
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self._metrics = metrics
        self._retry_after = retry_after
        self._clock = clock

    @property
    def depth(self) -> int:
        """Jobs currently queued (excluding any shutdown sentinel)."""
        return self._queue.qsize()

    async def offer(self, pending: Pending, wait: bool) -> None:
        """Enqueue one pending computation.

        ``wait=False`` (external requests) raises :class:`Backpressure`
        when the queue is full; ``wait=True`` (internal fan-outs like
        sweeps) awaits queue space instead, so a large expansion
        throttles itself rather than being rejected.  That wait also
        ends when the pending settles first (a dead drain task failed
        it; the caller's await of its future raises the failure).  A
        pending whose deadline budget is already spent is refused up
        front with :class:`DeadlineExceeded` — no queue slot is burned
        on work nobody can use.
        """
        remaining = None
        if pending.deadline is not None and self._clock is not None:
            remaining = pending.deadline - self._clock.monotonic()
            if remaining <= 0:
                self._metrics.counter("deadline_expirations").inc()
                raise DeadlineExceeded("at admission")
        if wait:
            put = asyncio.ensure_future(self._queue.put(pending))
            try:
                await asyncio.wait(
                    (put, pending.future), timeout=remaining,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                put.cancel()  # a no-op once the put has landed
            if not put.done() and not pending.future.done():
                self._metrics.counter("deadline_expirations").inc()
                raise DeadlineExceeded("waiting for queue space")
        else:
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self._metrics.counter("rejected_total").inc()
                raise Backpressure(
                    self._retry_after(self.depth), self.depth
                ) from None
        self._metrics.gauge("queue_depth").set(self.depth)

    async def take(self) -> object:
        """Await the next queued item (a :class:`Pending` or ``SHUTDOWN``)."""
        # The batcher's idle park: unbounded by design, woken by the
        # shutdown sentinel.
        return await self._queue.get()  # lint-ok: R006

    def take_nowait(self) -> object | None:
        """The next queued item, or ``None`` when the queue is empty."""
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None

    async def push_shutdown(self) -> None:
        """Enqueue the shutdown sentinel (the batcher exits on it)."""
        # Shutdown must land even when the queue is momentarily full;
        # the live batcher is draining it.
        await self._queue.put(SHUTDOWN)  # lint-ok: R006

    def snapshot(self) -> dict:
        """Queue depth and bound."""
        return {"queue_depth": self.depth, "max_queue": self._queue.maxsize}

    async def drain(self) -> None:
        """Fail anything still queued — it will never run.

        Called after the batcher has exited: whatever is left behind
        the sentinel (a sweep's blocked ``put`` landing late, say) gets
        a loud :class:`ServiceError` instead of a hung future.
        """
        while True:
            item = self.take_nowait()
            if item is None:
                break
            if item is SHUTDOWN or not isinstance(item, Pending):
                continue
            if not item.future.done():
                item.future.set_exception(
                    ServiceError("service stopped before the job ran")
                )
        self._metrics.gauge("queue_depth").set(0)


class Coalescer:
    """Stage 2: identical in-flight configurations share one future.

    The map is keyed by the canonical
    :func:`~repro.sim.stages.run_key`, so two requests that mean the
    same simulation — however they were spelled on the wire — join the
    same computation.  Entries are registered when a job is enqueued
    and resolved when its batch completes.
    """

    name = "coalescer"

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._inflight: dict[StoreKey, Pending] = {}
        self._metrics = metrics

    def join(self, key: StoreKey) -> Pending | None:
        """The in-flight computation for ``key``, counting the share."""
        pending = self._inflight.get(key)
        if pending is not None:
            self._metrics.counter("coalesced_total").inc()
        return pending

    def register(self, pending: Pending) -> None:
        """Track a newly enqueued computation for later joiners."""
        self._inflight[pending.key] = pending

    def resolve(self, key: StoreKey) -> None:
        """Drop a completed (or failed) computation from the map."""
        self._inflight.pop(key, None)

    @property
    def inflight(self) -> int:
        """Computations currently tracked."""
        return len(self._inflight)

    def inflight_items(self) -> list[Pending]:
        """The tracked computations themselves: every piece of work
        with live waiters, queued *and* mid-batch."""
        return list(self._inflight.values())

    def snapshot(self) -> dict:
        """The in-flight computation count."""
        return {"inflight": self.inflight}

    async def drain(self) -> None:
        """Forget every tracked computation (their futures are already
        resolved by the batcher or failed by admission's drain)."""
        self._inflight.clear()


class Batcher:
    """Stage 3: adaptive batch assembly and the stack's pacing brain.

    One batcher task drains the admission queue into executor calls,
    sizing each batch from the observed queue depth and lingering
    (briefly, and only when jobs are expensive enough for batching to
    pay) to let concurrent clients pile in.  It owns the per-job
    latency EMA, from which both the linger and admission's
    retry-after hint derive.

    Args:
        max_batch: Largest job count handed to one executor call.
        linger_s: Upper bound on how long a batch waits for company.
        retry_after_floor: Floor of the retry-after hint.
        clock: Monotonic time source.
        metrics: The service's metrics registry.
    """

    name = "batcher"

    def __init__(
        self,
        max_batch: int,
        linger_s: float,
        retry_after_floor: float,
        clock: Clock,
        metrics: MetricsRegistry,
    ) -> None:
        self._max_batch = max_batch
        self._linger_cap = linger_s
        self._retry_after_floor = retry_after_floor
        self._clock = clock
        self._metrics = metrics
        self._ema: float | None = None
        self._task: asyncio.Task | None = None
        self._admission: Admission | None = None
        self._coalescer: Coalescer | None = None
        self._executor: "Executor | None" = None

    @property
    def job_latency_ema(self) -> float | None:
        """Observed per-job latency EMA, seconds (``None`` until the
        first batch completes)."""
        return self._ema

    def start(
        self,
        admission: Admission,
        coalescer: Coalescer,
        executor: "Executor",
    ) -> None:
        """Wire the stack and spawn the drain task (idempotent while
        the task is alive)."""
        if self._task is not None and not self._task.done():
            return
        self._admission = admission
        self._coalescer = coalescer
        self._executor = executor
        self._task = asyncio.get_running_loop().create_task(
            self._loop(), name="repro-service-batcher"
        )
        self._task.add_done_callback(self._on_exit)

    def _on_exit(self, task: asyncio.Task) -> None:
        """Fail every waiter once the drain task has died.

        The coalescing map is the complete list: queued work, the batch
        that was running, and sweep jobs still waiting for queue space
        (they register before their put).  Nothing restarts the task;
        the service refuses engine work from here on and ``/healthz``
        answers 503, so a process manager restarts the process.
        """
        if task.cancelled() or task.exception() is None:
            return
        error = task.exception()
        _log.error("service drain task died", exc_info=error)
        assert self._coalescer is not None
        for pending in self._coalescer.inflight_items():
            self._coalescer.resolve(pending.key)
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceError(f"service drain task died: {error!r}")
                )

    @property
    def running(self) -> bool:
        """Whether the drain task exists and has not finished."""
        return self._task is not None and not self._task.done()

    def suggest_retry_after(self, queue_depth: int) -> float:
        """A retry-after hint scaled to how far behind the stack is."""
        if self._ema is None:
            return self._retry_after_floor
        backlog_batches = 1 + queue_depth // self._max_batch
        estimate = self._ema * self._max_batch * backlog_batches
        return min(30.0, max(self._retry_after_floor, estimate))

    def _linger_seconds(self) -> float:
        """How long this batch should wait for company.

        Adapts to observed per-job latency: when jobs are cheap,
        lingering would dominate service time, so the batcher skips it;
        when jobs are expensive, a bounded linger lets concurrent
        clients join the batch (and coalesce duplicates) at negligible
        relative cost.
        """
        if self._ema is None:
            return self._linger_cap
        return min(self._linger_cap, self._ema * _LINGER_FRACTION)

    def _target_batch_size(self, queue_depth: int) -> int:
        """Batch size adapted to the observed queue depth."""
        return max(1, min(self._max_batch, 1 + queue_depth))

    async def _loop(self) -> None:
        admission = self._admission
        assert admission is not None, "start() wires the stack first"
        while True:
            item = await admission.take()
            if item is SHUTDOWN:
                return
            assert isinstance(item, Pending)
            linger = self._linger_seconds()
            if linger > 0 and admission.depth == 0:
                await asyncio.sleep(linger)
            batch = [item]
            target = self._target_batch_size(admission.depth)
            while len(batch) < target:
                extra = admission.take_nowait()
                if extra is None:
                    break
                if extra is SHUTDOWN:
                    # Put the sentinel back for the next loop turn so
                    # the current batch still completes.
                    await admission.push_shutdown()
                    break
                assert isinstance(extra, Pending)
                batch.append(extra)
            self._metrics.gauge("queue_depth").set(admission.depth)
            batch = self._cancel_expired(batch)
            if batch:
                await self._run_batch(batch)

    def _cancel_expired(self, batch: list[Pending]) -> list[Pending]:
        """Drop pendings no waiter can use any more.

        A job is cancelled only when *every* coalesced waiter's deadline
        has passed (``Pending.deadline`` folds them with ``max``; an
        unbounded waiter pins it to ``None``).  Cancelled futures get a
        :class:`DeadlineExceeded`, the coalescer entry is resolved so a
        fresh request recomputes, and the expiry lands on the
        ``deadline_expirations`` counter.
        """
        now = self._clock.monotonic()
        live: list[Pending] = []
        for item in batch:
            if item.deadline is not None and now >= item.deadline:
                assert self._coalescer is not None
                self._coalescer.resolve(item.key)
                self._metrics.counter("deadline_expirations").inc()
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceeded("cancelled before dispatch")
                    )
            else:
                live.append(item)
        return live

    async def _run_batch(self, batch: list[Pending]) -> None:
        assert self._executor is not None and self._coalescer is not None
        started = self._clock.monotonic()
        results = await self._executor.execute([item.job for item in batch])
        elapsed = self._clock.monotonic() - started
        per_job = elapsed / len(batch)
        self._ema = (
            per_job if self._ema is None
            else _EMA_ALPHA * per_job + (1 - _EMA_ALPHA) * self._ema
        )
        metrics = self._metrics
        metrics.counter("batches_total").inc()
        metrics.counter("engine_jobs_total").inc(len(batch))
        metrics.histogram("batch_size").observe(len(batch))
        metrics.histogram("batch_latency_s").observe(elapsed)
        metrics.gauge("job_latency_ema_s").set(self._ema)
        for item, result in zip(batch, results, strict=True):
            self._coalescer.resolve(item.key)
            if isinstance(result, FailedJob):
                metrics.counter(f"failed_{result.reason}_total").inc()
            if not item.future.done():
                item.future.set_result(result)

    def snapshot(self) -> dict:
        """Latency EMA, batch bound, and drain-task health."""
        return {
            "job_latency_ema_s": self._ema,
            "max_batch": self._max_batch,
            "running": self.running,
        }

    async def drain(self) -> None:
        """Push the shutdown sentinel and wait for the task to exit.

        Robust against a dead task: the sentinel is skipped (nothing
        would consume it, and a full queue would block the push), and
        the wait never re-raises the task's exception — the
        done-callback has already logged it and failed its waiters — so
        shutdown always completes.
        """
        if self._task is None:
            return
        assert self._admission is not None
        if not self._task.done():
            await self._admission.push_shutdown()
            await asyncio.wait((self._task,))  # lint-ok: R006 - shutdown must not abandon it
        self._task = None


class Executor:
    """Stage 4: engine dispatch off the event loop.

    Runs :meth:`~repro.sim.engine.StagedEngine.run_many` in-process
    (a worker count of 1) on a worker thread so the event loop stays
    responsive, and absorbs engine-infrastructure crashes (not per-job
    failures — the hardened engine already types those) into
    :class:`~repro.sim.engine.FailedJob` slots, so a broken engine can
    never hang a waiter.

    Args:
        engine: The engine to drive.
        retries: Engine-level re-attempts per job.
        interceptor: Optional hook awaited before each engine
            dispatch, inside the failure-isolation net: a sleeping
            interceptor injects stage latency, and an ``Exception``
            becomes typed :class:`~repro.sim.engine.FailedJob` slots.
            Production stacks leave it ``None``.
    """

    name = "executor"

    def __init__(
        self,
        engine: StagedEngine,
        retries: int,
        interceptor: Callable[[list[SimJob]], Awaitable[None]] | None = None,
    ) -> None:
        self.engine = engine
        self._retries = retries
        self._interceptor = interceptor

    async def execute(self, jobs: list[SimJob]) -> list:
        """Run one batch; one result or :class:`FailedJob` per slot."""
        loop = asyncio.get_running_loop()
        try:
            if self._interceptor is not None:
                await self._interceptor(jobs)
            return await loop.run_in_executor(None, self._run_many, jobs)
        except asyncio.CancelledError:
            raise  # shutdown outranks the failure net
        except Exception as exc:  # engine infrastructure, not a job
            _log.exception(
                "batch of %d job(s) failed in the engine", len(jobs)
            )
            failure = FailedJob(job=None, reason="error", error=repr(exc))
            return [failure] * len(jobs)

    def _run_many(self, jobs: list[SimJob]) -> list:
        # Worker count 1: the batch runs in this thread.  A process
        # pool per batch costs more than the millisecond jobs it runs.
        return self.engine.run_many(jobs, 1, retries=self._retries)

    def snapshot(self) -> dict:
        """The engine-dispatch knobs."""
        return {"retries": self._retries}

    async def drain(self) -> None:
        """Nothing to release — batches run on the loop's thread pool."""
        return None
