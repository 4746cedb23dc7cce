"""End-to-end self-check: ``repro serve --check``.

Boots a real service (HTTP listener, pipeline, engine) on an ephemeral
localhost port, drives it with N concurrent in-process clients sending
a duplicate-heavy stream over the 24 golden configurations (the 8
Figure-16 schemes x 3 golden applications), and asserts the service
contract:

* **zero dropped responses** — every request of every client gets an
  answer (backpressure rejections are retried by the client, so they
  must converge, never vanish);
* **coalescing works** — concurrent duplicate requests share
  computations (``coalesced_total > 0``) and the combined
  coalesce+store hit rate on the duplicate stream is at least 50 %;
* **byte-identical results** — every response, re-encoded canonically,
  equals a direct :class:`~repro.sim.engine.StagedEngine` run of the
  same configuration on a private store.  The serving layer may batch,
  cache, and coalesce, but never perturb a number.

The service's store is :func:`~repro.sim.store.default_store`: with
``REPRO_RESULT_STORE`` set, the service saves it to that file at its
clean stop, and a re-run with ``expect_warm`` proves a warm restart
from the file.

:class:`ServerHarness` (the service in a background thread with a
ready/stop handshake) is exported for tests and examples.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
from dataclasses import asdict, dataclass, field

from repro.experiments.common import DEFAULT_SCHEMES
from repro.service import codec
from repro.service.client import ServiceClient
from repro.service.pipeline import ServiceConfig, SimulationService
from repro.service.server import ServiceServer
from repro.sim.config import SystemConfig
from repro.sim.engine import SimJob, StagedEngine
from repro.sim.store import ResultStore, default_store
from repro.util.version import package_version

__all__ = ["ServerHarness", "run_check"]

#: The golden applications (the golden-run suite's three profiles).
GOLDEN_APPS = ("Ocean", "CG", "mcf")


def golden_jobs(system: SystemConfig) -> list[SimJob]:
    """The 24 golden configurations as canonical jobs."""
    return [
        SimJob.of(app, scheme, system)
        for app in GOLDEN_APPS
        for _, scheme in DEFAULT_SCHEMES
    ]


class ServerHarness:
    """A live service on an ephemeral port, in a background thread.

    Runs its own event loop so synchronous callers (tests, the
    self-check, example scripts) can drive the service over real HTTP
    from any number of threads.

    Args:
        service_config: Pipeline knobs for the hosted service.
        engine: Engine to serve (default: fresh engine + private store,
            so harnesses never leak state into the process-wide store).
        host: Bind address.
        interceptor: Optional batch interceptor, passed through to the
            service (tests inject latency with it; see
            :class:`~repro.service.stages.Executor`).
    """

    def __init__(
        self,
        service_config: ServiceConfig | None = None,
        engine: StagedEngine | None = None,
        host: str = "127.0.0.1",
        interceptor=None,
    ) -> None:
        self.host = host
        self.port: int | None = None
        self.engine = (
            engine if engine is not None else StagedEngine(ResultStore())
        )
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self.interceptor = interceptor
        self.service: SimulationService | None = None
        self.server: ServiceServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._failure: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "ServerHarness":
        """Boot the server; blocks until it is accepting connections."""
        self._thread = threading.Thread(
            target=self._run, name="repro-service-harness", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service harness did not come up in time")
        if self._failure is not None:
            raise RuntimeError(
                f"service harness failed to start: {self._failure!r}"
            )
        return self

    def stop(self) -> None:
        """Shut the server down and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def client(self, **kwargs) -> ServiceClient:
        """A client pointed at this harness (one per thread, please)."""
        assert self.port is not None, "harness is not started"
        return ServiceClient(host=self.host, port=self.port, **kwargs)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = SimulationService(
            engine=self.engine,
            config=self.service_config,
            interceptor=self.interceptor,
        )
        server = self.server = ServiceServer(self.service, host=self.host, port=0)
        await server.start()
        self.port = server.port
        self._ready.set()
        try:
            # Parked until stop(); not a request path.
            await self._stop.wait()  # lint-ok: R006
        finally:
            await server.stop()


@dataclass
class _ClientOutcome:
    """What one driver thread observed."""

    responses: list[tuple[int, dict]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _drive_client(
    harness: ServerHarness,
    client_index: int,
    request_indices: list[int],
    payloads: list[dict],
    outcome: _ClientOutcome,
    start_barrier: threading.Barrier,
) -> None:
    try:
        with harness.client(timeout=300.0, max_attempts=10) as client:
            start_barrier.wait(timeout=60)
            for config_index in request_indices:
                reply = client.simulate_payload(payloads[config_index])
                outcome.responses.append((config_index, reply))
    except Exception as exc:
        outcome.errors.append(f"client {client_index}: {exc!r}")


def run_check(
    quick: bool = False,
    num_clients: int = 32,
    requests_per_client: int | None = None,
    sample_blocks: int | None = None,
    metrics_out: str | None = None,
    expect_warm: bool = False,
) -> tuple[int, dict]:
    """Run the end-to-end smoke check; returns (exit code, summary).

    ``quick`` shrinks the per-application value sample (the simulation
    cost), not the traffic shape: the concurrency and duplication the
    check exists to exercise stay the same.

    The service's store persists to ``REPRO_RESULT_STORE`` when it is
    set, and ``expect_warm`` asserts that every request was answered
    from that store — the warm-restart proof: run once to fill the
    file, re-run with ``expect_warm`` against the same file.
    """
    if sample_blocks is None:
        sample_blocks = 250 if quick else 1200
    if requests_per_client is None:
        requests_per_client = 3 if quick else 6
    system = SystemConfig(sample_blocks=sample_blocks)
    jobs = golden_jobs(system)
    payloads = [
        {
            "app": job.app.name,
            "scheme": asdict(job.scheme),
            "system": asdict(job.system),
        }
        for job in jobs
    ]

    # The reference: direct StagedEngine runs on a private store, the
    # bytes every service response must match.
    reference_engine = StagedEngine(ResultStore())
    reference_bytes = [
        codec.encode_json(
            codec.result_to_payload(
                reference_engine.run(job.app, job.scheme, job.system)
            )
        )
        for job in jobs
    ]

    # Duplicate-heavy traffic: every client opens with config 0
    # (num_clients concurrent identical requests — the coalescing
    # pressure test), then walks a seeded-random mix of the full
    # golden set.
    schedules = []
    for client_index in range(num_clients):
        rng = random.Random(1000 + client_index)
        indices = [0] + [
            rng.randrange(len(jobs)) for _ in range(requests_per_client - 1)
        ]
        schedules.append(indices)

    engine = StagedEngine(default_store())
    outcomes = [_ClientOutcome() for _ in range(num_clients)]
    barrier = threading.Barrier(num_clients)
    with ServerHarness(engine=engine) as harness:
        threads = [
            threading.Thread(
                target=_drive_client,
                args=(harness, i, schedules[i], payloads, outcomes[i], barrier),
                name=f"repro-check-client-{i}",
            )
            for i in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with harness.client() as probe:
            health = probe.healthz()
            metrics = probe.metrics()

    problems: list[str] = []
    for outcome in outcomes:
        problems.extend(outcome.errors)

    total_requests = sum(len(schedule) for schedule in schedules)
    answered = sum(len(outcome.responses) for outcome in outcomes)
    if answered != total_requests and not problems:
        problems.append(
            f"{total_requests - answered} request(s) silently dropped"
        )

    mismatches = 0
    for outcome in outcomes:
        for config_index, reply in outcome.responses:
            if codec.encode_json(reply) != reference_bytes[config_index]:
                mismatches += 1
    if mismatches:
        problems.append(
            f"{mismatches} response(s) differ from direct engine runs"
        )

    counters = metrics.get("counters", {})
    derived = metrics.get("derived", {})
    coalesced = counters.get("coalesced_total", 0)
    store_hits = counters.get("store_hits_total", 0)
    hit_rate = derived.get("combined_hit_rate", 0.0)
    # A warm replay is served from the store (that's the point), so
    # there is nothing in flight to coalesce — the coalescing contract
    # only binds runs that computed something.
    if answered and coalesced == 0 and store_hits < total_requests:
        problems.append("no request was coalesced under concurrent duplicates")
    if answered and hit_rate < 0.5:
        problems.append(
            f"combined coalesce+store hit rate {hit_rate:.1%} is below 50%"
        )
    if expect_warm and store_hits != total_requests:
        problems.append(
            f"expected a warm start from the saved store, but only "
            f"{store_hits} of {total_requests} request(s) were store hits"
        )
    if health.get("status") != "ok":
        problems.append(f"healthz reported {health!r}")
    if health.get("version") != package_version():
        problems.append(
            f"healthz version {health.get('version')!r} != "
            f"{package_version()!r}"
        )

    summary = {
        "quick": quick,
        "clients": num_clients,
        "requests": total_requests,
        "answered": answered,
        "golden_configs": len(jobs),
        "sample_blocks": sample_blocks,
        "byte_identical": mismatches == 0,
        "coalesced_total": coalesced,
        "combined_hit_rate": hit_rate,
        "store": str(engine.store.path) if engine.store.path else None,
        "store_hits": store_hits,
        "version": health.get("version"),
        "problems": problems,
        "metrics": metrics,
    }
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {metrics_out}", file=sys.stderr)
    return (1 if problems else 0), summary
