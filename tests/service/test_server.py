"""End-to-end tests: real HTTP server, real clients, real engine.

These exercise the full stack the way ``repro serve`` runs it — the
:class:`~repro.service.check.ServerHarness` boots the service on an
ephemeral localhost port and threads drive it with the in-repo client.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.service import codec
from repro.service.check import ServerHarness, run_check
from repro.service.client import (
    ServiceClient,
    ServiceRequestError,
    ServiceUnavailable,
)
from repro.service.clock import FakeClock
from repro.service.pipeline import ServiceConfig
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.engine import StagedEngine
from repro.sim.store import ResultStore

SYSTEM = {"sample_blocks": 120}


class GatedEngine:
    """A stub engine that holds every batch until :attr:`gate` opens,
    then answers from a real engine, so replies serialize over HTTP."""

    def __init__(self) -> None:
        self.real = StagedEngine(ResultStore())
        self.store = self.real.store
        self.gate = threading.Event()

    def run_many(self, jobs, max_workers=None, retries=1):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return self.real.run_many(jobs, max_workers, retries=retries)


@pytest.fixture(scope="module")
def harness():
    with ServerHarness() as running:
        yield running


def raw_exchange(harness, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes; return the status and the JSON body.

    For requests the in-repo client refuses to build.  A server that
    drops the connection without answering yields status 0.
    """
    with socket.create_connection(
        (harness.host, harness.port), timeout=10
    ) as conn:
        conn.sendall(request)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = conn.recv(65536)
            if not chunk:
                return 0, {}
            reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        while len(body) < length:
            chunk = conn.recv(65536)
            if not chunk:
                break
            body += chunk
    return int(lines[0].split(" ")[1]), json.loads(body)


class TestEndpoints:
    def test_healthz_document(self, harness):
        from repro.util.version import package_version

        with harness.client() as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == package_version()
        assert health["uptime_s"] >= 0
        assert health["max_queue"] == harness.service_config.max_queue

    def test_metrics_snapshot_shape(self, harness):
        """The bare metric names that ``repro serve --check`` and the
        benchmark read."""
        with harness.client() as client:
            first = client.simulate("Ocean", system={"sample_blocks": 119})
            repeat = client.simulate("Ocean", system={"sample_blocks": 119})
            metrics = client.metrics()
        assert repeat == first
        counters = metrics["counters"]
        assert counters["requests_total"] >= 2
        assert counters["store_hits_total"] >= 1
        for name in ("responses_total", "batches_total", "engine_jobs_total"):
            assert counters[name] >= 1, name
        for name in ("queue_depth", "job_latency_ema_s"):
            assert name in metrics["gauges"], name
        assert "breaker_state" not in metrics["gauges"]
        for name in ("service_latency_s", "batch_size", "batch_latency_s"):
            assert metrics["histograms"][name]["count"] >= 1, name
        for block in ("derived", "engine", "stages", "version"):
            assert block in metrics, block
        assert sorted(metrics["engine"]) == [
            "store_entries", "store_evictions", "store_hits",
            "store_max_entries", "store_misses",
        ]
        for block in ("breaker", "supervisor"):
            assert block not in metrics, block
        assert "crashed" not in metrics["stages"]["batcher"]
        names = [
            name
            for block in ("counters", "gauges", "histograms")
            for name in metrics[block]
        ]
        assert not [
            name for name in [*metrics, *names] if name.startswith("shard_")
        ]

    def test_simulate_matches_direct_engine_bytes(self, harness):
        direct = StagedEngine(ResultStore()).run(
            "CG", SchemeConfig(), SystemConfig(sample_blocks=120)
        )
        expected = codec.encode_json(codec.result_to_payload(direct))
        with harness.client() as client:
            reply = client.simulate("CG", system=SYSTEM)
        assert codec.encode_json(reply) == expected

    def test_sweep_grid_order_and_metrics(self, harness):
        with harness.client() as client:
            reply = client.sweep(
                {"num_banks": [2, 8]},
                system=SYSTEM,
                apps=["Ocean", "mcf"],
            )
        assert reply["apps"] == ["Ocean", "mcf"]
        assert [p["params"] for p in reply["points"]] == [
            {"num_banks": 2}, {"num_banks": 8},
        ]
        for point in reply["points"]:
            assert point["edp"] == pytest.approx(
                point["l2_energy_j"] * point["cycles"]
            )


class TestErrorMapping:
    def test_unknown_route_is_404(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client._request("GET", "/simulate")
        assert excinfo.value.status == 405

    def test_malformed_body_is_400(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate_payload({"app": "Ocean", "bogus": 1})
        assert excinfo.value.status == 400
        assert excinfo.value.error["type"] == "bad-request"

    def test_unknown_app_is_400(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate("NotAnApp", system=SYSTEM)
        assert excinfo.value.status == 400

    def test_unknown_config_field_is_400(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate("Ocean", system={"not_a_field": 1})
        assert excinfo.value.status == 400

    def test_empty_sweep_fields_is_400(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.sweep({}, system=SYSTEM)
        assert excinfo.value.status == 400

    def test_negative_content_length_is_400(self, harness):
        head = (
            b"POST /simulate HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: -5\r\n\r\n"
        )
        status, body = raw_exchange(harness, head)
        assert status == 400
        assert body["error"]["type"] == "malformed-request"

    def test_nonfinite_deadline_is_400(self, harness):
        payload = json.dumps({"app": "Ocean", "system": SYSTEM}).encode()
        for value in ("nan", "inf", "-inf"):
            head = (
                b"POST /simulate HTTP/1.1\r\nHost: localhost\r\n"
                b"X-Repro-Deadline-S: " + value.encode() + b"\r\n"
                b"Content-Length: " + str(len(payload)).encode()
                + b"\r\n\r\n"
            )
            status, body = raw_exchange(harness, head + payload)
            assert status == 400, value
            assert body["error"]["type"] == "bad-request", value


#: Scheme payloads no 512-bit sample block can carry.  Each used to
#: reach the engine: a 500 retried inside the service (or, for the
#: 512-bit chunk, a 200 with an int64-wrapped cycle count).  The last
#: two carry a value of the wrong JSON type.
INVALID_SCHEMES = {
    "chunk-width-3": {"name": "desc+zero-skip", "chunk_bits": 3},
    "chunk-width-64": {"name": "desc+zero-skip", "chunk_bits": 64, "data_wires": 8},
    "ecc-segment-100": {"name": "desc+zero-skip", "ecc_segment_bits": 100},
    "unknown-scheme": {"name": "nope"},
    "chunk-width-512": {"name": "desc+zero-skip", "chunk_bits": 512, "data_wires": 1},
    "text-wires": {"name": "desc+zero-skip", "data_wires": "128"},
    "bool-chunk-width": {"name": "desc+zero-skip", "chunk_bits": True},
}


#: System payloads the engine cannot run: each must be refused at parse
#: time with a 400, never reach the engine and its retries.
INVALID_SYSTEMS = {
    "cell-device": {"cell_device": "nope"},
    "periph-device": {"periph_device": "nope"},
    "no-banks": {"num_banks": 0},
    "three-banks": {"num_banks": 3},
    "no-ways": {"l2_associativity": 0},
    "no-subbanks": {"subbanks_per_bank": 0},
    "no-mats": {"mats_per_subbank": 0},
    "negative-clock": {"clock_hz": -1.0},
    "text-clock": {"clock_hz": "x"},
    "negative-seed": {"seed": -1},
    "negative-overhead": {"controller_overhead_cycles": -1},
    "huge-overhead": {"controller_overhead_cycles": 10**30},
    "text-nuca": {"nuca": "yes"},
    "bool-sample-blocks": {"sample_blocks": True},
    "fractional-seed": {"seed": 1.5},
    "float-banks": {"num_banks": 8.0},
}

#: The entries above whose value has the wrong JSON type, and the
#: field the 400 must name.
WRONG_JSON_TYPES = {
    "text-wires": ("scheme", "data_wires", "an integer"),
    "bool-chunk-width": ("scheme", "chunk_bits", "an integer"),
    "text-clock": ("system", "clock_hz", "a number"),
    "text-nuca": ("system", "nuca", "a boolean"),
    "bool-sample-blocks": ("system", "sample_blocks", "an integer"),
    "fractional-seed": ("system", "seed", "an integer"),
    "float-banks": ("system", "num_banks", "an integer"),
}


class TestInvalidGeometry:
    @pytest.mark.parametrize(
        "scheme", list(INVALID_SCHEMES.values()), ids=list(INVALID_SCHEMES)
    )
    def test_is_400_and_leaves_the_breaker_closed(self, harness, scheme):
        """A 400, and a valid request right behind it still gets a 200:
        one client's bad payload never takes the service down for the
        others."""
        payload = {"app": "Ocean", "scheme": scheme, "system": {"sample_blocks": 200}}
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate_payload(payload)
            assert excinfo.value.status == 400
            assert excinfo.value.error["type"] == "bad-request"
            assert "invalid scheme" in excinfo.value.error["message"]
            result = client.simulate("Ocean", system={"sample_blocks": 200})
        assert result["app"] == "Ocean"

    def test_sweep_rejects_an_invalid_scheme(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.sweep(
                    {"num_banks": [2, 8]},
                    scheme=INVALID_SCHEMES["chunk-width-3"],
                    system=SYSTEM,
                )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "system", list(INVALID_SYSTEMS.values()), ids=list(INVALID_SYSTEMS)
    )
    def test_invalid_system_is_400(self, harness, system):
        payload = {"app": "Ocean", "system": {**SYSTEM, **system}}
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate_payload(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error["type"] == "bad-request"
        assert "invalid system" in excinfo.value.error["message"]

    def test_sweep_rejects_an_invalid_system_value(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.sweep({"num_banks": [3, 8]}, system=SYSTEM)
        assert excinfo.value.status == 400
        assert "num_banks must be a power of two" in (
            excinfo.value.error["message"]
        )

    @pytest.mark.parametrize(
        "case", list(WRONG_JSON_TYPES), ids=list(WRONG_JSON_TYPES)
    )
    def test_wrong_json_type_is_400_naming_the_field(self, harness, case):
        what, field, expected = WRONG_JSON_TYPES[case]
        tables = {"scheme": INVALID_SCHEMES, "system": INVALID_SYSTEMS}
        payload = {"app": "Ocean", "system": dict(SYSTEM)}
        payload[what] = {**payload.get(what, {}), **tables[what][case]}
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.simulate_payload(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error["type"] == "bad-request"
        assert excinfo.value.error["message"].startswith(
            f"invalid {what}: {field} must be {expected}, got "
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"nuca": ["yes"]}, "invalid system: nuca must be a boolean"),
            ({"controller_overhead_cycles": [-1, 4]},
             "controller_overhead_cycles must be non-negative"),
            ({"controller_overhead_cycles": [4, 10**30]},
             "controller_overhead_cycles must be in [0, 1000000]"),
        ],
        ids=["text-nuca", "negative-overhead", "huge-overhead"],
    )
    def test_sweep_checks_every_combination(self, harness, fields, message):
        with harness.client() as client:
            with pytest.raises(ServiceRequestError) as excinfo:
                client.sweep(fields, system=SYSTEM)
        assert excinfo.value.status == 400
        assert excinfo.value.error["type"] == "bad-request"
        assert message in excinfo.value.error["message"]


class DrainTaskKilled(BaseException):
    """Not an ``Exception``: escapes the executor's failure net and
    kills the drain task."""


class TestDeadDrainTask:
    def test_miss_and_healthz_answer_503_hits_still_200(self):
        """Once the drain task has died, engine work gets 503, store
        hits still 200, and /healthz 503 so the process is restarted."""
        kill = threading.Event()

        async def intercept(jobs):
            if kill.is_set():
                raise DrainTaskKilled()

        def post(harness, payload):
            body = json.dumps(payload).encode()
            return raw_exchange(harness, (
                b"POST /simulate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + str(len(body)).encode()
                + b"\r\n\r\n" + body
            ))

        hit = {"app": "Ocean", "system": {"sample_blocks": 123}}
        with ServerHarness(
            service_config=ServiceConfig(batch_linger_s=0.0),
            interceptor=intercept,
        ) as dying:
            status, stored = post(dying, hit)
            assert status == 200
            kill.set()
            for app in ("CG", "mcf"):  # the dying batch, then a later miss
                status, body = post(
                    dying, {"app": app, "system": {"sample_blocks": 123}}
                )
                assert status == 503, app
                assert body["error"]["type"] == "service-unavailable", app
            assert post(dying, hit) == (200, stored)
            status, body = raw_exchange(
                dying, b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            assert status == 503
            assert body["error"]["type"] == "service-unavailable"
        assert not dying.service.batcher.running


class TestConcurrentClients:
    def test_duplicate_heavy_traffic_zero_drops(self, harness):
        """Eight threads, each requesting the same config: every
        request answered, every answer identical, and every one past
        the first served by coalescing or the store."""
        num_clients = 8
        barrier = threading.Barrier(num_clients)
        replies: list[dict] = []
        errors: list[Exception] = []
        payload = {"app": "Ocean", "system": {"sample_blocks": 137}}

        def drive():
            try:
                with harness.client(max_attempts=10) as client:
                    barrier.wait(timeout=30)
                    replies.append(client.simulate_payload(payload))
            except Exception as exc:  # collected, not raised in-thread
                errors.append(exc)

        threads = [threading.Thread(target=drive) for _ in range(num_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(replies) == num_clients
        first = codec.encode_json(replies[0])
        assert all(codec.encode_json(r) == first for r in replies)

        with harness.client() as probe:
            counters = probe.metrics()["counters"]
        shared = counters.get("coalesced_total", 0) + counters.get(
            "store_hits_total", 0
        )
        assert shared >= num_clients - 1


class TestClientRetry:
    def test_unreachable_service_exhausts_attempts(self):
        # Bind-then-close guarantees a port nothing is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        client = ServiceClient(
            port=dead_port, max_attempts=3, backoff_s=0.001
        )
        with pytest.raises(ServiceUnavailable, match="3 attempt"):
            client.healthz()

    def test_deadline_stops_retrying_early(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        clock = FakeClock()
        client = ServiceClient(
            port=dead_port,
            max_attempts=50,
            backoff_s=10.0,  # would sleep forever without the deadline
            deadline_s=5.0,
            clock=clock,
        )
        with pytest.raises(ServiceUnavailable):
            client.healthz()

    def test_retry_after_hint_is_bounded(self):
        wait = ServiceClient._retry_after(
            {"retry-after": "3600"}, {}, fallback=0.1
        )
        assert wait == 5.0  # capped, never an hour-long stall
        wait = ServiceClient._retry_after(
            {}, {"error": {"retry_after_s": 0.25}}, fallback=0.1
        )
        assert wait == 0.25
        wait = ServiceClient._retry_after({}, {}, fallback=0.1)
        assert wait == pytest.approx(0.1)

    def test_429_consumes_attempts_then_unavailable(self):
        """A real queue flood, the contract ``repro chaos``'s
        queue-flood phase checked.  With the engine gated shut and a
        one-slot queue, a request past the full queue gets a 429 with
        ``Retry-After`` and moves ``rejected_total``, a one-attempt
        client gives up with :class:`ServiceUnavailable`, and retrying
        clients all converge on the direct engine's bytes once the gate
        opens, with zero drops."""
        import http.client
        import time

        engine = GatedEngine()
        payloads = [
            {"app": app, "system": {"sample_blocks": 97}}
            for app in ("Ocean", "CG", "mcf")
        ]
        direct = StagedEngine(ResultStore())
        expected = [
            codec.encode_json(codec.result_to_payload(direct.run(
                payload["app"], SchemeConfig(),
                SystemConfig(**payload["system"]),
            )))
            for payload in payloads
        ]

        def wait_for(harness, predicate):
            with harness.client() as probe:
                for _ in range(500):
                    metrics = probe.metrics()
                    if predicate(metrics):
                        return metrics
                    time.sleep(0.01)
            raise AssertionError(f"service never reached the state: {metrics}")

        def depth(metrics):
            stages = metrics["stages"]
            return (stages["coalescer"]["inflight"],
                    stages["admission"]["queue_depth"])

        replies: list[tuple[int, dict]] = []
        errors: list[Exception] = []

        def drive(indices):
            try:
                with harness.client(max_attempts=100, backoff_s=0.01) as c:
                    for index in indices:
                        replies.append((index, c.simulate_payload(
                            payloads[index]
                        )))
            except Exception as exc:  # collected, not raised in-thread
                errors.append(exc)

        config = ServiceConfig(max_queue=1, batch_linger_s=0.0)
        with ServerHarness(service_config=config, engine=engine) as harness:
            # One job held in the gated engine, one filling the queue.
            threads = [threading.Thread(target=drive, args=([0],))]
            threads[0].start()
            wait_for(harness, lambda m: depth(m) == (1, 0))
            threads.append(threading.Thread(target=drive, args=([1],)))
            threads[1].start()
            wait_for(harness, lambda m: depth(m) == (2, 1))

            conn = http.client.HTTPConnection(
                harness.host, harness.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/simulate", body=json.dumps(payloads[2]),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 429
            assert float(response.getheader("Retry-After")) > 0
            assert body["error"]["type"] == "backpressure"
            with harness.client(max_attempts=1) as once:
                with pytest.raises(ServiceUnavailable, match="1 attempt"):
                    once.simulate_payload(payloads[2])
            rejected = wait_for(
                harness, lambda m: m["counters"].get("rejected_total", 0) >= 2
            )["counters"]["rejected_total"]

            # Retrying clients pile onto the full queue, then converge
            # once the gate opens.
            for _ in range(4):
                threads.append(threading.Thread(target=drive, args=([2, 0, 1],)))
                threads[-1].start()
            wait_for(
                harness,
                lambda m: m["counters"].get("rejected_total", 0) > rejected,
            )
            engine.gate.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            service = harness.service
        assert errors == []
        assert len(replies) == 2 + 4 * 3
        for index, reply in replies:
            assert codec.encode_json(reply) == expected[index], index
        assert not service.batcher.running


class TestRunCheck:
    SMALL = dict(
        quick=True, num_clients=6, requests_per_client=2, sample_blocks=80
    )

    def test_quick_check_passes(self, tmp_path, monkeypatch):
        from repro.sim.store import STORE_PATH_ENV

        monkeypatch.delenv(STORE_PATH_ENV, raising=False)
        metrics_out = tmp_path / "metrics.json"
        code, summary = run_check(metrics_out=str(metrics_out), **self.SMALL)
        assert code == 0, summary["problems"]
        assert summary["problems"] == []
        assert summary["byte_identical"] is True
        assert summary["answered"] == 12
        assert summary["coalesced_total"] > 0
        assert metrics_out.exists()

    def test_warm_restart_from_the_saved_store(self, tmp_path, monkeypatch):
        """``repro serve --check`` then ``--expect-warm`` over one
        ``REPRO_RESULT_STORE`` file: every warm request is a store hit,
        and without the file the warm check fails."""
        from repro.sim.store import STORE_PATH_ENV

        path = tmp_path / "serve.pkl"
        monkeypatch.setenv(STORE_PATH_ENV, str(path))
        code, cold = run_check(**self.SMALL)
        assert code == 0, cold["problems"]
        assert cold["store"] == str(path)
        assert path.exists()
        code, warm = run_check(expect_warm=True, **self.SMALL)
        assert code == 0, warm["problems"]
        assert warm["store_hits"] == warm["requests"] == 12
        # A fully warm run has nothing in flight to coalesce, with or
        # without the flag.
        code, again = run_check(**self.SMALL)
        assert code == 0, again["problems"]
        assert again["coalesced_total"] == 0
        monkeypatch.delenv(STORE_PATH_ENV)
        code, unsaved = run_check(expect_warm=True, **self.SMALL)
        assert code == 1
        assert unsaved["store"] is None
        assert any("warm start" in p for p in unsaved["problems"])
