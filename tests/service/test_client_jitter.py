"""Client-side resilience: full-jitter backoff, 503 retry, hedging.

The jitter RNG exists so a fleet of clients that fail in lock-step
(thundering herd against a recovering service) spreads back out instead
of re-synchronizing on identical backoff schedules.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service.client import ServiceClient


class TestFullJitter:
    def test_jitter_stays_within_the_ceiling(self):
        client = ServiceClient(port=1, jitter_seed=0)
        for _ in range(200):
            wait = client._jittered(0.5)
            assert 0.0 <= wait <= 0.5
        assert client._jittered(0.0) == 0.0
        assert client._jittered(-1.0) == 0.0  # clamped, never negative

    def test_same_seed_gives_identical_schedules(self):
        first = ServiceClient(port=1, jitter_seed=42)
        second = ServiceClient(port=1, jitter_seed=42)
        assert [first._jittered(1.0) for _ in range(20)] == [
            second._jittered(1.0) for _ in range(20)
        ]

    def test_different_seeds_desynchronize(self):
        """Two clients failing in lock-step must not back off in
        lock-step: different seeds produce different sleep schedules."""
        first = ServiceClient(port=1, jitter_seed=1)
        second = ServiceClient(port=1, jitter_seed=2)
        schedule_one = [first._jittered(1.0) for _ in range(20)]
        schedule_two = [second._jittered(1.0) for _ in range(20)]
        assert schedule_one != schedule_two
        # Not a single collision across the whole schedule.
        assert all(a != b for a, b in zip(schedule_one, schedule_two))


class ScriptedServer:
    """A one-thread HTTP stub that serves canned responses in order.

    Each accepted connection gets exactly one scripted response and a
    ``Connection: close``, forcing the client to reconnect per attempt
    (which is exactly what a retry does).
    """

    def __init__(self, script: list[tuple[int, dict, dict]]):
        self._script = list(script)
        self.requests: list[str] = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self._script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                raw = conn.recv(65536).decode("utf-8", "replace")
                self.requests.append(raw.split("\r\n", 1)[0])
                status, headers, payload = self._script.pop(0)
                body = json.dumps(payload).encode()
                lines = [
                    f"HTTP/1.1 {status} X",
                    "Content-Type: application/json",
                    f"Content-Length: {len(body)}",
                    "Connection: close",
                ]
                lines.extend(f"{k}: {v}" for k, v in headers.items())
                head = "\r\n".join(lines) + "\r\n\r\n"
                conn.sendall(head.encode() + body)
        self._sock.close()

    def close(self) -> None:
        self._sock.close()
        self._thread.join(timeout=5)


class TestRetryOn503:
    def test_503_with_retry_after_is_retried_to_success(self):
        """A 503 is 'come back later', not an error: the client
        honours the hint and the follow-up succeeds."""
        server = ScriptedServer([
            (503, {"Retry-After": "0.01"},
             {"error": {"type": "service-unavailable",
                        "retry_after_s": 0.01}}),
            (200, {}, {"status": "ok"}),
        ])
        try:
            client = ServiceClient(
                port=server.port, max_attempts=3,
                backoff_s=0.01, jitter_seed=0,
            )
            started = time.monotonic()
            reply = client.healthz()
            elapsed = time.monotonic() - started
            client.close()
        finally:
            server.close()
        assert reply == {"status": "ok"}
        assert len(server.requests) == 2
        assert elapsed < 5.0  # hint honoured, not the 3600s cap

    def test_503_exhausts_attempts_cleanly(self):
        from repro.service.client import ServiceUnavailable

        server = ScriptedServer([
            (503, {"Retry-After": "0.01"}, {"error": {}}),
            (503, {"Retry-After": "0.01"}, {"error": {}}),
        ])
        try:
            client = ServiceClient(
                port=server.port, max_attempts=2,
                backoff_s=0.01, jitter_seed=0,
            )
            with pytest.raises(ServiceUnavailable, match="2 attempt"):
                client.healthz()
            client.close()
        finally:
            server.close()
        assert len(server.requests) == 2


class TestHedging:
    def test_slow_first_batch_triggers_a_hedge(self):
        """When the service is slow to answer, the client races a
        second connection; the result is still correct and the hedge
        counter records the race."""
        from repro.service.check import ServerHarness

        slow_once = {"remaining": 1}

        async def intercept(jobs):
            if slow_once["remaining"] > 0:
                slow_once["remaining"] -= 1
                import asyncio

                await asyncio.sleep(0.5)

        with ServerHarness(interceptor=intercept) as harness:
            with harness.client(
                hedge_after_s=0.05, timeout=30, jitter_seed=0
            ) as client:
                result = client.simulate(
                    "Ocean", system={"sample_blocks": 128}
                )
                assert client.hedges >= 1
        assert result["app"] == "Ocean"

    def test_fast_answers_never_hedge(self):
        from repro.service.check import ServerHarness

        with ServerHarness() as harness:
            with harness.client(
                hedge_after_s=5.0, timeout=30, jitter_seed=0
            ) as client:
                result = client.simulate(
                    "Ocean", system={"sample_blocks": 128}
                )
                assert client.hedges == 0
        assert result["app"] == "Ocean"

    def test_hedge_config_validation(self):
        with pytest.raises(ValueError, match="hedge_after_s"):
            ServiceClient(port=1, hedge_after_s=0.0)
