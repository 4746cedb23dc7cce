"""Chaos harness: ``repro chaos`` — prove the service survives faults.

Boots a real service (HTTP listener, pipeline, supervisor, breaker,
disk warehouse) through the same :class:`ServerHarness` the
``--check`` smoke test uses, then drives duplicate-heavy golden traffic
while a **seeded chaos schedule** injects faults phase by phase:

1. **crash storm** — batches are killed mid-flight with
   :class:`~repro.service.stages.BatchCrash` (Bernoulli schedule) and
   slowed by bursty latency (Gilbert–Elliott schedule) while golden
   clients hammer the service; the supervisor must fence, drain,
   restart, and re-submit, and every client must still get
   byte-identical answers;
2. **failure burst** — every batch on the wire fails, driving the
   circuit breaker open; once chaos stops, cold probes must walk the
   breaker half-open → closed again;
3. **corruption + scrub** — bytes are flipped inside flushed warehouse
   segments on disk, then a supervisor scrub pass must detect the CRC
   damage and repair the records from the in-memory tier;
4. **tight deadlines** — latency injection plus near-zero client
   budgets must produce structured 504s (never hangs) and count
   ``deadline_expirations``;
5. **queue flood** — a burst of cold distinct configurations against a
   tiny admission queue; backpressured clients must retry and converge
   with zero silent drops.

The chaos *schedules* reuse the repository's seeded fault processes
(:mod:`repro.faults.processes`) on a single "wire", so a run is
reproducible event-for-event from ``--seed`` — the same machinery that
perturbs wires in the link-level campaigns here decides which batch
dies when (see ``docs/faults.md``).

The run fails loudly unless: every verified response is byte-identical
to a direct :class:`~repro.sim.engine.StagedEngine` run, no request is
silently dropped, recovery actually happened (``supervisor_restarts``,
breaker opens *and* closes, ``scrub_repairs``, and
``deadline_expirations`` all > 0 in ``/metrics``), recovery latency
stayed bounded, and shutdown leaves no orphaned tasks.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.faults.processes import FaultConfig, make_process
from repro.service import codec
from repro.service.breaker import BreakerConfig
from repro.service.check import ServerHarness, golden_jobs
from repro.service.client import ServiceClientError, ServiceRequestError
from repro.service.pipeline import ServiceConfig
from repro.service.stages import BatchCrash
from repro.sim import stages as sim_stages
from repro.sim.config import SystemConfig
from repro.sim.engine import SimJob, StagedEngine
from repro.sim.store import ResultStore
from repro.sim.warehouse import _RECORD

__all__ = ["ChaosController", "ChaosSchedule", "run_chaos"]

#: Recovery must complete within this many seconds (detect → restart).
RECOVERY_LATENCY_BOUND_S = 5.0


class ChaosSchedule:
    """A seeded chaos event source.

    Reuses the fault-process machinery — one "wire", one tick per
    consultation — so chaos events flow from the same reproducible
    generators as the link-level fault campaigns.  An optional budget
    caps total events so a storm always quiets down.

    Args:
        rate: Per-consultation event probability.
        rng: The seeded generator every draw flows from.
        burst: Use the bursty Gilbert–Elliott chain instead of
            memoryless Bernoulli draws.
        budget: Maximum events ever fired, or None for unlimited.
    """

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        burst: bool = False,
        budget: int | None = None,
    ) -> None:
        self._process = make_process(rate, 1, FaultConfig(burst=burst), rng)
        self._budget = budget
        self.fired = 0

    def fire(self) -> bool:
        """Tick the schedule; True when this tick is an event."""
        events = self._process.sample()
        if self._budget is not None and self.fired >= self._budget:
            return False
        if bool(events[0]):
            self.fired += 1
            return True
        return False


class ChaosController:
    """The switchboard the batch interceptor consults.

    The runner thread flips :attr:`mode`; :meth:`intercept` (running on
    the service's event loop) acts on whatever mode it observes:

    * ``"kill"`` — the kill schedule decides which batches die with a
      :class:`BatchCrash`; the jitter schedule injects small bursty
      delays to widen the race windows around the crash;
    * ``"fail"`` — every batch raises, failing its jobs (the breaker
      fuel);
    * ``"slow"`` — every batch stalls ``latency_s`` before dispatch
      (the deadline fuel);
    * ``"off"`` — batches pass through untouched.
    """

    def __init__(
        self,
        seed: int,
        kill_rate: float = 0.5,
        kill_budget: int = 4,
        jitter_rate: float = 0.3,
        jitter_s: float = 0.01,
        latency_s: float = 0.3,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.mode = "off"
        self.kill_schedule = ChaosSchedule(
            kill_rate, rng, burst=False, budget=kill_budget
        )
        self.jitter_schedule = ChaosSchedule(jitter_rate, rng, burst=True)
        self.jitter_s = jitter_s
        self.latency_s = latency_s
        self.kills = 0
        self.failures = 0
        self.delays = 0

    async def intercept(self, jobs: list[SimJob]) -> None:
        """The batch interceptor (the service's plug point)."""
        mode = self.mode
        if mode == "off":
            return
        if mode == "kill":
            if self.jitter_schedule.fire():
                self.delays += 1
                await asyncio.sleep(self.jitter_s)
            if self.kill_schedule.fire():
                self.kills += 1
                raise BatchCrash(
                    f"chaos kill ({len(jobs)} job(s) in flight)"
                )
        elif mode == "fail":
            self.failures += 1
            raise RuntimeError("chaos failure injection")
        elif mode == "slow":
            # Monotone stats counter: += is atomic between awaits on
            # the single event loop, and no reader couples delays to
            # other state, so interleaved increments are benign.
            self.delays += 1  # lint-ok: R007
            await asyncio.sleep(self.latency_s)

    def snapshot(self) -> dict:
        """Injected-event totals, JSON-ready."""
        return {
            "kills": self.kills,
            "failures": self.failures,
            "delays": self.delays,
        }


@dataclass
class _Outcome:
    """What one driver thread observed."""

    responses: list[tuple[int, dict]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


class _Oracle:
    """Byte-exact reference answers, computed on demand and cached."""

    def __init__(self) -> None:
        self._engine = StagedEngine(ResultStore())
        self._cache: dict = {}

    def bytes_for(self, job: SimJob) -> bytes:
        key = sim_stages.run_key(job.app, job.scheme, job.system)
        if key not in self._cache:
            result = self._engine.run(job.app, job.scheme, job.system)
            self._cache[key] = codec.encode_json(
                codec.result_to_payload(result)
            )
        return self._cache[key]


def _payload(job: SimJob) -> dict:
    return {
        "app": job.app.name,
        "scheme": asdict(job.scheme),
        "system": asdict(job.system),
    }


def _drive(
    harness: ServerHarness,
    indices: list[int],
    payloads: list[dict],
    outcome: _Outcome,
    barrier: threading.Barrier,
    hedge_after_s: float | None = None,
    jitter_seed: int | None = None,
) -> None:
    """One golden-traffic client: every request must converge."""
    try:
        with harness.client(
            timeout=120.0, max_attempts=12, backoff_s=0.05,
            jitter_seed=jitter_seed, hedge_after_s=hedge_after_s,
        ) as client:
            barrier.wait(timeout=60)
            for config_index in indices:
                reply = client.simulate_payload(payloads[config_index])
                outcome.responses.append((config_index, reply))
    except Exception as exc:
        outcome.errors.append(repr(exc))


def _run_phase(
    harness: ServerHarness,
    schedules: list[list[int]],
    payloads: list[dict],
    hedge_clients: int = 0,
) -> list[_Outcome]:
    """Drive one thread per schedule; join them all."""
    outcomes = [_Outcome() for _ in schedules]
    barrier = threading.Barrier(len(schedules))
    threads = [
        threading.Thread(
            target=_drive,
            args=(harness, schedule, payloads, outcomes[i], barrier),
            kwargs={
                "hedge_after_s": 2.0 if i < hedge_clients else None,
                "jitter_seed": 9000 + i,
            },
            name=f"repro-chaos-client-{i}",
        )
        for i, schedule in enumerate(schedules)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _verify(
    outcomes: list[_Outcome],
    jobs: list[SimJob],
    oracle: _Oracle,
    expected: int,
    phase: str,
    problems: list[str],
) -> dict:
    """Assert zero drops and byte-identity for one phase's traffic."""
    answered = 0
    mismatches = 0
    for outcome in outcomes:
        problems.extend(f"[{phase}] {error}" for error in outcome.errors)
        for config_index, reply in outcome.responses:
            answered += 1
            if codec.encode_json(reply) != oracle.bytes_for(jobs[config_index]):
                mismatches += 1
    if answered != expected:
        problems.append(
            f"[{phase}] {expected - answered} request(s) silently dropped"
        )
    if mismatches:
        problems.append(
            f"[{phase}] {mismatches} response(s) differ from direct "
            "engine runs"
        )
    return {"expected": expected, "answered": answered,
            "mismatches": mismatches}


def _corrupt_segment_records(store: ResultStore, count: int) -> int:
    """Flip one value byte in up to ``count`` flushed warehouse records.

    Returns how many records were actually damaged on disk.
    """
    warehouse = store.warehouse
    assert warehouse is not None
    damaged = 0
    for _key, (path, offset, key_len, val_len, _crc) in list(
        warehouse._index.items()
    )[:count]:
        if val_len < 2:
            continue
        with open(path, "r+b") as handle:
            target = offset + _RECORD.size + key_len + 1
            handle.seek(target)
            byte = handle.read(1)
            handle.seek(target)
            handle.write(bytes([byte[0] ^ 0xFF]))
        damaged += 1
    return damaged


def run_chaos(
    quick: bool = False,
    seed: int = 0,
    num_clients: int | None = None,
    requests_per_client: int | None = None,
    sample_blocks: int | None = None,
    warehouse: str | None = None,
    report_out: str | None = None,
) -> tuple[int, dict]:
    """Run the chaos campaign; returns (exit code, report).

    One service instance lives through every phase, so the final
    ``/metrics`` scrape carries the whole campaign's recovery counters.
    ``quick`` shrinks the simulation cost and traffic volume, not the
    fault classes: every phase still runs.
    """
    if sample_blocks is None:
        sample_blocks = 200 if quick else 800
    if num_clients is None:
        num_clients = 8 if quick else 16
    if requests_per_client is None:
        requests_per_client = 3 if quick else 5

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _run_chaos_inner(
            quick=quick,
            seed=seed,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            sample_blocks=sample_blocks,
            warehouse=warehouse if warehouse is not None else tmp,
            report_out=report_out,
        )


def _run_chaos_inner(
    quick: bool,
    seed: int,
    num_clients: int,
    requests_per_client: int,
    sample_blocks: int,
    warehouse: str,
    report_out: str | None,
) -> tuple[int, dict]:
    system = SystemConfig(sample_blocks=sample_blocks)
    jobs = golden_jobs(system)
    oracle = _Oracle()
    controller = ChaosController(seed=seed, kill_budget=3 if quick else 6)
    config = ServiceConfig(
        max_queue=8,
        breaker=BreakerConfig(
            window=8, failure_threshold=0.5, min_samples=2,
            cooldown_s=0.2, max_cooldown_s=1.0, probes=1,
        ),
        supervisor_interval_s=0.02,
        restart_backoff_s=0.02,
        restart_max_backoff_s=0.5,
    )
    engine = StagedEngine(ResultStore(warehouse=warehouse))
    problems: list[str] = []
    report: dict = {
        "quick": quick,
        "seed": seed,
        "clients": num_clients,
        "sample_blocks": sample_blocks,
        "phases": {},
    }

    with ServerHarness(
        service_config=config,
        engine=engine,
        interceptor=controller.intercept,
    ) as harness:
        # -- phase 1: crash storm under golden duplicate-heavy traffic.
        controller.mode = "kill"
        golden_payloads = [_payload(job) for job in jobs]
        rng = random.Random(seed)
        schedules = [
            [rng.randrange(len(jobs))]
            + [rng.randrange(len(jobs))
               for _ in range(requests_per_client - 1)]
            for _ in range(num_clients)
        ]
        outcomes = _run_phase(
            harness, schedules, golden_payloads,
            hedge_clients=num_clients // 2,
        )
        controller.mode = "off"
        expected = sum(len(schedule) for schedule in schedules)
        report["phases"]["crash_storm"] = _verify(
            outcomes, jobs, oracle, expected, "crash-storm", problems
        )
        report["phases"]["crash_storm"]["kills"] = controller.kills
        if controller.kills == 0:
            problems.append(
                "[crash-storm] the seeded schedule never killed a batch"
            )

        # -- phase 2: failure burst opens the breaker, probes close
        # it.  Sacrificial cold configs; errors here are the point.
        controller.mode = "fail"
        burn_jobs = [
            SimJob.of(job.app.name, job.scheme,
                      system.with_(sample_blocks=sample_blocks + 1))
            for job in jobs[:8]
        ]
        burned = 0
        with harness.client(max_attempts=1, backoff_s=0.01) as torch:
            for job in burn_jobs:
                try:
                    torch.simulate_payload(_payload(job))
                except ServiceClientError:
                    burned += 1
        controller.mode = "off"
        metrics_mid = harness.run_in_loop(
            lambda: harness.service.metrics.snapshot()
        )
        opens = metrics_mid["counters"].get("breaker_opens_total", 0)
        if opens == 0:
            problems.append(
                "[failure-burst] no breaker opened under a 100% "
                "failure rate"
            )
        # Cold probes walk the breaker half-open -> closed; the client
        # honours Retry-After on 503, so converged probes prove closure.
        probe_jobs = [
            SimJob.of(job.app.name, job.scheme,
                      system.with_(sample_blocks=sample_blocks + 2))
            for job in jobs[:8]
        ]
        with harness.client(
            max_attempts=12, backoff_s=0.05, jitter_seed=seed,
        ) as probe:
            for job in probe_jobs:
                try:
                    probe.simulate_payload(_payload(job))
                except ServiceClientError as exc:
                    problems.append(
                        f"[failure-burst] recovery probe failed: {exc!r}"
                    )
        report["phases"]["failure_burst"] = {
            "burned": burned,
            "injected_failures": controller.failures,
            "breaker_opens": opens,
        }

        # -- phase 3: flip bytes in flushed segments, scrub repairs
        # them from the in-memory tier.
        harness.run_in_loop(engine.store.flush)
        damaged = _corrupt_segment_records(engine.store, count=3)
        scrub = harness.run_in_loop(
            harness.service.supervisor.scrub_now, timeout=60.0
        )
        report["phases"]["scrub"] = {"damaged": damaged, **scrub}
        if damaged == 0:
            problems.append(
                "[scrub] nothing was flushed to the warehouse to corrupt"
            )
        if scrub.get("repaired", 0) < damaged:
            problems.append(
                f"[scrub] corrupted {damaged} record(s) but only "
                f"{scrub.get('repaired', 0)} repaired"
            )
        if scrub.get("lost", 0):
            problems.append(
                f"[scrub] {scrub['lost']} record(s) lost outright"
            )

        # -- phase 4: bursty latency + near-zero budgets -> structured
        # 504s, never hangs.  Sacrificial cold configs again.
        controller.mode = "slow"
        slow_jobs = [
            SimJob.of(job.app.name, job.scheme,
                      system.with_(sample_blocks=sample_blocks + 3))
            for job in jobs[:4]
        ]
        expirations_seen = 0
        with harness.client(
            max_attempts=1, deadline_s=0.05, backoff_s=0.01,
        ) as hurried:
            for job in slow_jobs:
                try:
                    hurried.simulate_payload(_payload(job))
                except ServiceRequestError as exc:
                    if exc.status == 504:
                        expirations_seen += 1
                except ServiceClientError:
                    pass
        controller.mode = "off"
        report["phases"]["deadlines"] = {"expired_504s": expirations_seen}
        if expirations_seen == 0:
            problems.append(
                "[deadlines] no request expired under injected latency"
            )

        # -- phase 5: flood a tiny queue with cold distinct configs;
        # backpressured clients retry and converge, zero drops.
        flood_jobs = [
            SimJob.of(job.app.name, job.scheme,
                      system.with_(sample_blocks=sample_blocks + 4))
            for job in jobs[: 8]
        ]
        flood_payloads = [_payload(job) for job in flood_jobs]
        flood_schedules = [
            list(range(len(flood_jobs))) for _ in range(num_clients)
        ]
        flood_outcomes = _run_phase(
            harness, flood_schedules, flood_payloads
        )
        flood_expected = num_clients * len(flood_jobs)
        report["phases"]["queue_flood"] = _verify(
            flood_outcomes, flood_jobs, oracle, flood_expected,
            "queue-flood", problems,
        )

        # -- final metrics scrape + shutdown hygiene.
        with harness.client() as probe:
            metrics = probe.metrics()
        service = harness.service
    # Harness stopped: nothing may linger.
    supervisor_snap = service.supervisor.snapshot()
    if supervisor_snap["resubmits_inflight"]:
        problems.append(
            f"{supervisor_snap['resubmits_inflight']} re-submit task(s) "
            "orphaned after shutdown"
        )
    if supervisor_snap["running"]:
        problems.append("supervisor health loop survived shutdown")
    if service.batcher.running:
        problems.append("drain task survived shutdown")

    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    for name in ("supervisor_restarts", "breaker_opens_total",
                 "breaker_closes_total", "scrub_repairs",
                 "deadline_expirations"):
        if counters.get(name, 0) <= 0:
            problems.append(f"/metrics counter {name} never moved")
    if "breaker_state" not in gauges:
        problems.append("/metrics exports no breaker_state gauge")
    recovery = histograms.get("supervisor_recovery_latency_s") or {}
    worst = recovery.get("max")
    if worst is not None and worst > RECOVERY_LATENCY_BOUND_S:
        problems.append(
            f"worst recovery latency {worst:.2f}s exceeds the "
            f"{RECOVERY_LATENCY_BOUND_S}s bound"
        )

    report["chaos"] = controller.snapshot()
    report["supervisor"] = supervisor_snap
    report["recovery_latency"] = recovery
    report["counters"] = {
        name: counters.get(name, 0)
        for name in ("supervisor_restarts", "breaker_opens_total",
                     "breaker_closes_total", "scrub_repairs",
                     "scrub_passes_total", "deadline_expirations",
                     "rejected_total", "coalesced_total")
    }
    report["problems"] = problems
    report["ok"] = not problems
    if report_out:
        with open(report_out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {report_out}", file=sys.stderr)
    return (1 if problems else 0), report
