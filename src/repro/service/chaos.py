"""Chaos harness: ``repro chaos`` — prove the service survives faults.

Boots a real service (HTTP listener, pipeline, disk warehouse) through
the same :class:`ServerHarness` the ``--check`` smoke test uses, then
injects faults phase by phase:

1. **corruption + scrub** — golden traffic fills the warehouse, bytes
   are flipped inside its flushed segments on disk, then a
   :meth:`~repro.sim.store.ResultStore.scrub` pass must detect the CRC
   damage and repair the records from the in-memory tier;
2. **tight deadlines** — latency injection plus near-zero client
   budgets must produce structured 504s (never hangs) and count
   ``deadline_expirations``;
3. **queue flood** — a burst of cold distinct configurations against a
   tiny admission queue; backpressured clients must retry and converge
   with zero silent drops.

The run fails loudly unless: every verified response is byte-identical
to a direct :class:`~repro.sim.engine.StagedEngine` run, no request is
silently dropped, the scrub repaired every damaged record,
``deadline_expirations`` moved in ``/metrics``, and shutdown leaves no
drain task running.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from dataclasses import asdict, dataclass, field

from repro.service import codec
from repro.service.check import ServerHarness, golden_jobs
from repro.service.client import ServiceClientError, ServiceRequestError
from repro.service.pipeline import ServiceConfig
from repro.sim import stages as sim_stages
from repro.sim.config import SystemConfig
from repro.sim.engine import SimJob, StagedEngine
from repro.sim.store import ResultStore
from repro.sim.warehouse import _RECORD

__all__ = ["ChaosController", "run_chaos"]


class ChaosController:
    """The switchboard the batch interceptor consults.

    The runner thread flips :attr:`mode` between ``"off"`` (batches pass
    through untouched) and ``"slow"`` (every batch stalls ``latency_s``
    before dispatch — the deadline fuel); :meth:`intercept`, running on
    the service's event loop, acts on whatever mode it observes.
    """

    def __init__(self, latency_s: float = 0.3) -> None:
        self.mode = "off"
        self.latency_s = latency_s
        self.delays = 0

    async def intercept(self, jobs: list[SimJob]) -> None:
        """The batch interceptor (the service's plug point)."""
        if self.mode == "slow":
            # Monotone stats counter: += is atomic between awaits on
            # the single event loop, and no reader couples delays to
            # other state, so interleaved increments are benign.
            self.delays += 1  # lint-ok: R007
            await asyncio.sleep(self.latency_s)

    def snapshot(self) -> dict:
        """Injected-event totals, JSON-ready."""
        return {"delays": self.delays}


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
    jitter_seed: int,
) -> None:
    """One golden-traffic client: every request must converge."""
    try:
        with harness.client(
            timeout=120.0, max_attempts=12, backoff_s=0.05,
            jitter_seed=jitter_seed,
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
) -> list[_Outcome]:
    """Drive one thread per schedule; join them all."""
    outcomes = [_Outcome() for _ in schedules]
    barrier = threading.Barrier(len(schedules))
    threads = [
        threading.Thread(
            target=_drive,
            args=(harness, schedule, payloads, outcomes[i], barrier,
                  9000 + i),
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
    num_clients: int | None = None,
    sample_blocks: int | None = None,
    warehouse: str | None = None,
    report_out: str | None = None,
) -> tuple[int, dict]:
    """Run the chaos campaign; returns (exit code, report).

    One service instance lives through every phase, so the final
    ``/metrics`` scrape carries the whole campaign's counters.
    ``quick`` shrinks the simulation cost and traffic volume, not the
    fault classes: every phase still runs.
    """
    if sample_blocks is None:
        sample_blocks = 200 if quick else 800
    if num_clients is None:
        num_clients = 8 if quick else 16

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _run_chaos_inner(
            quick=quick,
            num_clients=num_clients,
            sample_blocks=sample_blocks,
            warehouse=warehouse if warehouse is not None else tmp,
            report_out=report_out,
        )


def _run_chaos_inner(
    quick: bool,
    num_clients: int,
    sample_blocks: int,
    warehouse: str,
    report_out: str | None,
) -> tuple[int, dict]:
    system = SystemConfig(sample_blocks=sample_blocks)
    jobs = golden_jobs(system)
    oracle = _Oracle()
    controller = ChaosController()
    engine = StagedEngine(ResultStore(warehouse=warehouse))
    problems: list[str] = []
    report: dict = {
        "quick": quick,
        "clients": num_clients,
        "sample_blocks": sample_blocks,
        "phases": {},
    }

    with ServerHarness(
        service_config=ServiceConfig(max_queue=8),
        engine=engine,
        interceptor=controller.intercept,
    ) as harness:
        # -- phase 1: golden traffic fills the warehouse; flip bytes in
        # the flushed segments, and a scrub repairs them from the
        # in-memory tier.
        golden = _run_phase(
            harness, [list(range(len(jobs)))],
            [_payload(job) for job in jobs],
        )
        served = _verify(golden, jobs, oracle, len(jobs), "scrub", problems)
        harness.run_in_loop(engine.store.flush)
        damaged = _corrupt_segment_records(engine.store, count=3)
        scrub = harness.run_in_loop(engine.store.scrub, timeout=60.0)
        report["phases"]["scrub"] = {
            "golden": served, "damaged": damaged, **scrub,
        }
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

        # -- phase 2: injected latency + near-zero budgets -> structured
        # 504s, never hangs.  Sacrificial cold configs.
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

        # -- phase 3: flood a tiny queue with cold distinct configs;
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
    if service.batcher.running:
        problems.append("drain task survived shutdown")

    counters = metrics.get("counters", {})
    if counters.get("deadline_expirations", 0) <= 0:
        problems.append("/metrics counter deadline_expirations never moved")

    report["chaos"] = controller.snapshot()
    report["counters"] = {
        name: counters.get(name, 0)
        for name in ("deadline_expirations", "rejected_total",
                     "coalesced_total")
    }
    report["problems"] = problems
    report["ok"] = not problems
    if report_out:
        with open(report_out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {report_out}", file=sys.stderr)
    return (1 if problems else 0), report
