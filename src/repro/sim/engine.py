"""The staged simulation engine and the batch/parallel front-end.

:class:`StagedEngine` wires the pure stages of :mod:`repro.sim.stages`
together, memoizing every stage in a unified
:class:`~repro.sim.store.ResultStore` under the stage's declared key.
:func:`repro.sim.system.simulate` is a thin wrapper over
:meth:`StagedEngine.run`; :func:`simulate_many` fans a batch of
:class:`SimJob` configurations out over a ``ProcessPoolExecutor``, and
:meth:`StagedEngine.fault_campaigns` does the same for link-level
fault-injection campaigns (:mod:`repro.faults`).

Scheme dispatch happens once per run through
:func:`repro.encoding.registry.make_transfer_model` — the engine never
branches on what kind of scheme (DESC, baseline, ECC-wrapped) it is
driving.

Parallel determinism: every stage is pure and every job is simulated
independently, so ``simulate_many`` returns bit-for-bit identical
results for any worker count, in the order the jobs were given.

Failure isolation: a job that raises — in a pool worker or in the
serial path — produces a :class:`FailedJob` in its output slot instead
of aborting the batch.  Jobs are retried with exponential backoff
before giving up, and a worker killed hard (``BrokenProcessPool``)
triggers a serial recompute of the affected jobs.
"""

from __future__ import annotations

import logging
import time
import traceback
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.encoding.registry import make_transfer_model
from repro.sim import stages
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.metrics import RunResult, TransferStats
from repro.sim.stages import CacheDesign, WorkloadSample
from repro.sim.store import RESULT_STORE, ResultStore, StoreKey
from repro.util.profiling import timed
from repro.workloads.generator import chunk_statistics
from repro.workloads.profiles import AppProfile, profile

__all__ = [
    "FailedJob",
    "SimJob",
    "StagedEngine",
    "simulate_many",
    "fork_available",
]

_log = logging.getLogger("repro.sim.engine")

#: First retry delay; doubles per attempt.  Deliberately tiny — the
#: backoff exists to ride out transient resource pressure, not to wait
#: for an operator.
_RETRY_BASE_DELAY_S = 0.05

#: Marks a key the store does not hold (``None`` is a storable value).
_ABSENT = object()


@dataclass(frozen=True)
class FailedJob:
    """A job that could not produce a result; holds its slot in a batch.

    Attributes:
        job: The failed configuration (a :class:`SimJob`, a fault
            campaign config, …).
        reason: ``"error"`` — the job raised on every attempt.
        error: Traceback text of the final attempt.
        attempts: How many times the job was tried.
    """

    job: object
    reason: str
    error: str = field(default="", repr=False)
    attempts: int = 1


def fork_available() -> bool:
    """Whether this platform can fork pool workers.

    Without ``fork`` (Windows, some sandboxes) spawn-based workers
    re-import the package cold, which forfeits the store-affinity wins
    the pool exists for — the batch APIs then run serially instead.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class SimJob:
    """One (application, scheme, system) configuration to simulate.

    Frozen and picklable, so batches of jobs ship to pool workers
    unchanged.
    """

    app: AppProfile
    scheme: SchemeConfig
    system: SystemConfig

    @classmethod
    def of(
        cls,
        app: AppProfile | str,
        scheme: SchemeConfig,
        system: SystemConfig | None = None,
    ) -> "SimJob":
        """Normalise name/None conveniences into a concrete job."""
        if isinstance(app, str):
            app = profile(app)
        return cls(app=app, scheme=scheme,
                   system=system if system is not None else SystemConfig())


class StagedEngine:
    """Runs the five-stage pipeline, memoizing stages in one store."""

    def __init__(self, store: ResultStore | None = None) -> None:
        self.store = store if store is not None else RESULT_STORE

    # -- individual stages, store-backed -------------------------------

    def workload(
        self, app: AppProfile, num_blocks: int, seed: int
    ) -> WorkloadSample:
        """Stage 1: the application's cached block-value sample."""

        def compute() -> WorkloadSample:
            with timed("stage.workload"):
                return stages.sample_workload(app, num_blocks, seed)

        return self.store.get_or_compute(
            stages.workload_key(app, num_blocks, seed), compute
        )

    def chunk_statistics(
        self, app: AppProfile, num_blocks: int, seed: int
    ) -> dict[str, float]:
        """The sample's chunk-value statistics (Figs. 12/13).

        Persisted stores keep these few numbers but not the sample
        itself, so a warm run reads them without redrawing the stream.
        Callers share the returned dict and must not mutate it.
        """

        def compute() -> dict[str, float]:
            sample = self.workload(app, num_blocks, seed)
            with timed("stage.chunk_stats"):
                return chunk_statistics(sample.packed.chunks(4))

        return self.store.get_or_compute(
            stages.chunk_stats_key(app, num_blocks, seed), compute
        )

    def transfer_stats(
        self,
        scheme: SchemeConfig,
        app: AppProfile,
        num_blocks: int,
        seed: int,
        exclude_null: bool = False,
    ) -> TransferStats:
        """Stage 2: a scheme's mean per-block wire activity."""

        def compute() -> TransferStats:
            model = make_transfer_model(scheme)
            sample = self.workload(app, num_blocks, seed)
            with timed("stage.transfer"):
                return model.transfer_stats(sample, exclude_null)

        return self.store.get_or_compute(
            stages.transfer_key(scheme, app, num_blocks, seed, exclude_null),
            compute,
        )

    def cache_design(
        self, system: SystemConfig, data_wires: int, overhead_wires: int
    ) -> CacheDesign:
        """Stage 3: the CACTI-class design scalars for a geometry."""

        def compute() -> CacheDesign:
            with timed("stage.cache_design"):
                return stages.design_cache(system, data_wires, overhead_wires)

        return self.store.get_or_compute(
            stages.cache_design_key(system, data_wires, overhead_wires),
            compute,
        )

    # -- the full pipeline ---------------------------------------------

    def run(
        self,
        app: AppProfile | str,
        scheme: SchemeConfig,
        system: SystemConfig | None = None,
    ) -> RunResult:
        """Run one (application, scheme, system) simulation."""
        if isinstance(app, str):
            app = profile(app)
        if system is None:
            system = SystemConfig()
        return self.store.get_or_compute(
            stages.run_key(app, scheme, system),
            lambda: self._run_uncached(app, scheme, system),
        )

    def _run_uncached(
        self, app: AppProfile, scheme: SchemeConfig, system: SystemConfig
    ) -> RunResult:
        model = make_transfer_model(scheme)
        stats = self.transfer_stats(
            scheme, app, system.sample_blocks, system.seed,
            exclude_null=system.null_directory,
        )
        design = self.cache_design(
            system, stats.data_wires, stats.overhead_wires
        )
        # Null-block directory (see repro.cache.null_directory): all-zero
        # blocks are served at the controller.  The analytic path assumes a
        # directory large enough to capture them (an optimistic bound; the
        # event-driven substrate models finite capacity).
        null_fraction = (
            self.workload(app, system.sample_blocks, system.seed).null_fraction
            if system.null_directory
            else 0.0
        )
        with timed("stage.timing"):
            timing = stages.solve_timing(
                app, system, stats, design,
                scheme_delay=model.scheme_delay_cycles(stats, system),
                null_fraction=null_fraction,
            )
        with timed("stage.energy"):
            l2, processor = stages.account_energy(
                app, system, stats, design, timing,
                controller_write_flips=model.controller_write_flips(system),
                null_fraction=null_fraction,
            )
        return RunResult(
            app=app.name,
            scheme=scheme.label(),
            cycles=timing.cycles,
            hit_latency=timing.hit_latency,
            miss_latency=timing.miss_latency,
            bank_wait=timing.bank_wait,
            transfers=app.l2_accesses * timing.transfers_per_access,
            transfer_stats=stats,
            l2=l2,
            processor=processor,
        )

    def run_many(
        self,
        jobs: Iterable[SimJob],
        max_workers: int = 1,
        retries: int = 1,
    ) -> list[RunResult | FailedJob]:
        """Simulate a batch of jobs, optionally across processes.

        Args:
            jobs: Configurations to run, in output order.
            max_workers: Process count; 1 runs serially in-process.
            retries: Extra attempts per job, with exponential backoff,
                before the job fails.

        Results are identical for any ``max_workers`` — only wall-clock
        changes.  Worker results are merged back into this engine's
        store, so later serial calls hit.  A job that fails every
        attempt yields a :class:`FailedJob` in its slot; the rest of
        the batch is unaffected.
        """
        jobs = list(jobs)
        return self._batch(
            jobs,
            keys=[stages.run_key(j.app, j.scheme, j.system) for j in jobs],
            worker=_run_job_safe,
            local=lambda job: self.run(job.app, job.scheme, job.system),
            max_workers=max_workers,
            retries=retries,
            affinity=lambda job: (
                job.app.name, job.system.sample_blocks, job.system.seed
            ),
        )

    def fault_campaign(self, config: object) -> object:
        """Run one fault-injection campaign, memoized in the store."""
        from repro.faults.campaign import run_campaign

        return self.store.get_or_compute(
            ("fault-campaign", config.key()), lambda: run_campaign(config)
        )

    def fault_campaigns(
        self,
        configs: Iterable[object],
        max_workers: int = 1,
        retries: int = 1,
    ) -> list[object]:
        """Run a batch of fault campaigns with the same machinery as
        :meth:`run_many`: store hits served first, misses fanned out
        over the pool, failures isolated as :class:`FailedJob` slots.

        Campaigns are pure functions of their config (all randomness is
        seeded), so serial and parallel execution return identical
        results.
        """
        configs = list(configs)
        return self._batch(
            configs,
            keys=[("fault-campaign", c.key()) for c in configs],
            worker=_run_campaign_safe,
            local=self.fault_campaign,
            max_workers=max_workers,
            retries=retries,
            affinity=None,
        )

    # -- shared batch machinery ----------------------------------------

    def _batch(
        self,
        jobs: Sequence[object],
        keys: Sequence[StoreKey],
        worker: Callable[[tuple[object, int]], tuple],
        local: Callable[[object], object],
        max_workers: int,
        retries: int,
        affinity: Callable[[object], tuple] | None,
    ) -> list[object]:
        """Store-aware, failure-isolating fan-out shared by the batch APIs.

        ``worker`` is the picklable pool entry point; ``local`` computes
        one job in-process against *this* engine's store — used for the
        serial path and as the recompute route when the pool itself
        fails, so custom stores see their stage entries either way.
        """
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_workers > 1 and not fork_available():
            max_workers = 1  # clean serial fallback (see fork_available)
        # Serve whatever is already stored; only ship the misses.
        results: list[object | None] = []
        pending: list[tuple[int, object]] = []
        for index, (job, key) in enumerate(zip(jobs, keys, strict=True)):
            stored = self.store.get(key, _ABSENT)
            if stored is _ABSENT:
                results.append(None)
                pending.append((index, job))
            else:
                results.append(stored)
        if not pending:
            return results
        if affinity is not None:
            # Workload affinity: group jobs that share a block-value
            # sample (the most expensive stage) so each worker draws a
            # sample once and amortizes it across its whole chunk,
            # instead of every worker re-sampling every application.
            pending.sort(key=lambda item: affinity(item[1]))
        payloads = [(job, retries) for _, job in pending]

        def run_local(payload: tuple[object, int]) -> tuple:
            job, attempts = payload
            return _attempt(lambda: local(job), attempts)

        if max_workers == 1 or len(pending) <= 1:
            outcomes = [run_local(payload) for payload in payloads]
        else:
            # Two chunks per worker: near-maximal sample reuse (a sample
            # is re-drawn only where a chunk boundary splits an app's
            # group) with some slack for load balancing.
            chunksize = max(1, -(-len(pending) // (2 * max_workers)))
            outcomes = _pool_outcomes(
                worker, run_local, payloads, max_workers, chunksize
            )
        for (index, job), outcome in zip(pending, outcomes, strict=True):
            if outcome[0] == "ok":
                self.store.put(keys[index], outcome[1])
                results[index] = outcome[1]
            else:
                _, error, attempts = outcome
                _log.warning(
                    "job %r failed after %d attempt(s)", job, attempts
                )
                results[index] = FailedJob(
                    job=job, reason="error", error=error, attempts=attempts
                )
        return results


def _pool_outcomes(
    worker: Callable[[tuple[object, int]], tuple],
    run_local: Callable[[tuple[object, int]], tuple],
    payloads: Sequence[tuple[object, int]],
    max_workers: int,
    chunksize: int,
) -> list[tuple]:
    """Run payloads through a process pool, absorbing pool-level failures.

    ``worker`` never raises (it returns tagged outcomes), so anything
    escaping the pool is infrastructure: a refused fork (sandboxes) or
    a worker killed hard enough to break the pool.  Both degrade to an
    in-process recompute of the affected payloads.
    """
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(worker, payloads, chunksize=chunksize))
    except BrokenProcessPool:
        _log.warning(
            "process pool broke (worker died); recomputing %d job(s) serially",
            len(payloads),
        )
        return [run_local(payload) for payload in payloads]
    except (OSError, PermissionError):
        # Sandboxes can advertise fork yet refuse new processes;
        # results are pool-independent, so just run in-process.
        return [run_local(payload) for payload in payloads]


def _attempt(compute: Callable[[], object], retries: int) -> tuple:
    """Try a computation ``retries + 1`` times with exponential backoff."""
    delay = _RETRY_BASE_DELAY_S
    error = ""
    for attempt in range(retries + 1):
        try:
            return ("ok", compute())
        except Exception:
            error = traceback.format_exc()
            if attempt < retries:
                time.sleep(delay)
                delay *= 2
    return ("err", error, retries + 1)


def _run_job_safe(payload: tuple[SimJob, int]) -> tuple:
    """Pool-worker entry point: run one sim job against the worker's store."""
    job, retries = payload
    return _attempt(
        lambda: StagedEngine().run(job.app, job.scheme, job.system), retries
    )


def _run_campaign_safe(payload: tuple[object, int]) -> tuple:
    """Pool-worker entry point: run one fault campaign."""
    from repro.faults.campaign import run_campaign

    config, retries = payload
    return _attempt(lambda: run_campaign(config), retries)


def simulate_many(
    jobs: Iterable[SimJob | tuple],
    max_workers: int = 1,
    store: ResultStore | None = None,
    retries: int = 1,
) -> list[RunResult | FailedJob]:
    """Simulate many (application, scheme, system) configurations.

    The batch front-end of the staged engine: accepts :class:`SimJob`
    instances or plain ``(app, scheme[, system])`` tuples, fans them out
    over a process pool when ``max_workers`` exceeds 1, and returns
    results in job order — bit-for-bit identical to the serial path.

    A job that raises (after ``retries`` backed-off re-attempts) yields
    a :class:`FailedJob` in its slot instead of aborting the batch.

    Example::

        from repro.sim import SimJob, simulate_many, desc_scheme

        jobs = [SimJob.of(app, desc_scheme("zero")) for app in suite]
        results = simulate_many(jobs, max_workers=4)
    """
    normalised = [
        job if isinstance(job, SimJob) else SimJob.of(*job) for job in jobs
    ]
    return StagedEngine(store).run_many(
        normalised, max_workers=max_workers, retries=retries
    )
