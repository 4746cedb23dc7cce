"""Stack supervision: detect a crashed drain task, recover, re-submit.

The batcher task is the service's heartbeat — every queued request
funnels through it, so an unhandled crash (a chaos :class:`BatchCrash`,
a bug in a stage, a poisoned batch) would otherwise strand the whole
queue on futures nobody will ever resolve.  The supervisor closes that
hole with a small health loop:

1. **detect** — every ``supervisor_interval_s`` it probes the
   :attr:`~repro.service.stages.Batcher.crashed` flag (a finished task
   with an exception still attached);
2. **fence** — the breaker is forced open, so requests that would need
   the engine shed with 503 + Retry-After while store hits keep being
   served;
3. **drain** — the dead stack's stranded work is collected: the
   admission queue is emptied and the coalescing map (the
   authoritative list of computations with live waiters, queued *and*
   mid-batch) is cleared, and the work is held;
4. **restart** — after a bounded exponential backoff (doubling per
   consecutive crash, capped), the batcher is rebuilt and its task
   respawned; the breaker resets;
5. **re-submit** — each held computation is re-submitted through the
   restarted stack on its own task; the outcome — result or structured
   failure — lands on the original future, so every coalesced waiter
   resolves rather than hangs.

Recovery is observable: ``supervisor_restarts`` counts restarts,
``supervisor_recovery_latency_s`` records detect-to-restart latency,
and the snapshot reports the crash count.  The supervisor also runs
the warehouse scrubber on a configurable cadence
(``scrub_interval_s``), counting repaired records on
``scrub_repairs``.

Shutdown is orphan-free by construction: :meth:`ShardSupervisor.stop`
cancels the health loop, then settles every outstanding re-submit task
— work held by a recovery cut short, and a re-submit that cannot
finish, fail their futures with a structured
:class:`~repro.service.stages.ServiceError` instead of leaking.
"""

from __future__ import annotations

import asyncio
import logging
from typing import TYPE_CHECKING

from repro.service.stages import Pending, ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.pipeline import SimulationService

__all__ = ["ShardSupervisor"]

_log = logging.getLogger("repro.service.supervisor")


def _fail_stopped(pending: Pending) -> None:
    """Fail a computation the stopping service will never run."""
    if not pending.future.done():
        pending.future.set_exception(
            ServiceError("service stopped before the job ran")
        )


class ShardSupervisor:
    """The health-check / restart / re-submit loop over the service's
    stage stack.

    Args:
        service: The owning :class:`SimulationService`; interval,
            backoff, and scrub cadence come from its config.
    """

    def __init__(self, service: "SimulationService") -> None:
        self._service = service
        self._config = service.config
        self._clock = service.clock
        self._metrics = service.metrics
        self._task: asyncio.Task | None = None
        self._resubmits: set[asyncio.Task] = set()
        self._crashes = 0
        self._consecutive = 0
        self._restarted_at: float | None = None
        self._last_scrub = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the health loop; idempotent while alive."""
        if self._task is not None and not self._task.done():
            return
        self._last_scrub = self._clock.monotonic()
        self._task = asyncio.get_running_loop().create_task(
            self._loop(), name="repro-service-supervisor"
        )

    async def stop(self) -> None:
        """Cancel the health loop and settle every re-submit task.

        No orphans: a recovery cut short fails the work it held,
        outstanding re-submits are cancelled, and any future they still
        owned fails with a structured error.
        """
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task  # lint-ok: R006 - cancelled above
            # We cancelled the task one line up; awaiting it re-raises
            # that same CancelledError, which is the join succeeding.
            except asyncio.CancelledError:  # lint-ok: R007
                pass
            self._task = None
        if self._resubmits:
            tasks = list(self._resubmits)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._resubmits.clear()

    # -- the health loop -----------------------------------------------

    async def _loop(self) -> None:
        interval = self._config.supervisor_interval_s
        while True:
            await asyncio.sleep(interval)
            if self._service.batcher.crashed:
                await self._recover()
            else:
                self._maybe_forgive()
            self._maybe_scrub()

    def _maybe_forgive(self) -> None:
        """Clear the consecutive-crash streak once the stack has stayed
        healthy for a full (maximum) backoff window — so the next
        isolated crash restarts fast again, while a crash loop keeps
        its doubled delays."""
        if self._restarted_at is None or not self._consecutive:
            return
        stable_for = self._clock.monotonic() - self._restarted_at
        if stable_for >= self._config.restart_max_backoff_s:
            self._consecutive = 0

    async def _recover(self) -> None:
        service = self._service
        detected = self._clock.monotonic()
        self._crashes += 1
        self._consecutive += 1
        _log.warning(
            "service drain task crashed (%r); recovering",
            service.batcher.crash_exception(),
        )
        # Fence: requests that need the engine shed load until restart.
        service.breaker.force_open()
        held = self._collect_stranded()
        # Bounded exponential backoff per consecutive crash.
        backoff = min(
            self._config.restart_max_backoff_s,
            self._config.restart_backoff_s * (2 ** (self._consecutive - 1)),
        )
        try:
            await asyncio.sleep(backoff)
        except asyncio.CancelledError:
            # Stopped mid-backoff: the held work will never run.
            for pending in held:
                _fail_stopped(pending)
            raise
        service.restart_stack()
        service.breaker.reset()
        self._restarted_at = self._clock.monotonic()
        for pending in held:
            self._spawn_resubmit(pending)
        self._metrics.counter("supervisor_restarts").inc()
        self._metrics.histogram("supervisor_recovery_latency_s").observe(
            self._clock.monotonic() - detected
        )

    def _collect_stranded(self) -> list[Pending]:
        """Empty the dead stack's queue and coalescing map, returning
        every computation that still has unresolved waiters."""
        admission = self._service.admission
        coalescer = self._service.coalescer
        while admission.take_nowait() is not None:
            # The coalescing map is a superset of the queue (every
            # queued Pending is registered); emptying the queue just
            # keeps the restarted batcher from re-running them.
            pass
        stranded = [
            pending
            for pending in coalescer.inflight_items()
            if not pending.future.done()
        ]
        for pending in stranded:
            coalescer.resolve(pending.key)
        return stranded

    # -- re-submitting -------------------------------------------------

    def _spawn_resubmit(self, pending: Pending) -> None:
        task = asyncio.get_running_loop().create_task(
            self._resubmit(pending),
            name=f"repro-service-resubmit-{len(self._resubmits)}",
        )
        self._resubmits.add(task)
        task.add_done_callback(self._resubmits.discard)

    async def _resubmit(self, pending: Pending) -> None:
        """Re-submit one stranded computation through the restarted
        stack.

        Whatever happens lands on the original future — a result, a
        structured failure, or (on shutdown) a loud service error — so
        no coalesced waiter ever hangs on a crashed stack.
        """
        try:
            result = await self._service.serve_key(
                pending.key, pending.job, wait=True,
                deadline=pending.deadline,
            )
        except asyncio.CancelledError:
            _fail_stopped(pending)
            raise
        except ServiceError as exc:
            if not pending.future.done():
                pending.future.set_exception(exc)
        except Exception as exc:
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceError(f"re-submit failed: {exc!r}")
                )
        else:
            if not pending.future.done():
                pending.future.set_result(result)

    # -- scrubbing -----------------------------------------------------

    def _maybe_scrub(self) -> None:
        interval = self._config.scrub_interval_s
        if interval is None:
            return
        now = self._clock.monotonic()
        if now - self._last_scrub < interval:
            return
        self._last_scrub = now
        self.scrub_now()

    def scrub_now(self) -> dict:
        """Run one warehouse scrub pass and record its counters."""
        report = self._service.engine.store.scrub()
        if report.get("scanned", 0) or report.get("repaired", 0):
            _log.info("warehouse scrub: %s", report)
        self._metrics.counter("scrub_passes_total").inc()
        self._metrics.counter("scrub_repairs").inc(
            report.get("repaired", 0)
        )
        self._metrics.counter("scrub_lost_total").inc(
            report.get("lost", 0)
        )
        return report

    # -- observability -------------------------------------------------

    def snapshot(self) -> dict:
        """Crash count and outstanding re-submits, JSON-ready."""
        return {
            "running": self._task is not None and not self._task.done(),
            "crashes": self._crashes,
            "resubmits_inflight": len(self._resubmits),
        }
