"""The in-repo client for the simulation service.

A small, dependency-free blocking client over :mod:`http.client` with
the retry discipline the service's error contract asks for:

* **429 backpressure / 503 unavailable** — honoured, not fought: the
  client sleeps for the server's ``Retry-After`` hint (bounded) and
  retries, up to its attempt budget;
* **connection errors / timeouts** — simulation requests are pure and
  idempotent, so the client reconnects and retries with **full-jitter**
  exponential backoff: each sleep is drawn uniformly from
  ``[0, ceiling]`` where the ceiling doubles per retry, so a fleet of
  clients kicked off by the same outage desynchronizes instead of
  thundering back in lock-step.  The jitter RNG is seeded per client
  (``jitter_seed``), keeping test runs reproducible;
* **deadline propagation** — a client with a ``deadline_s`` budget
  stamps the *remaining* budget on every attempt as the
  ``X-Repro-Deadline-S`` header, so the server can refuse or cancel
  work the client can no longer use;
* **hedged requests** — with ``hedge_after_s`` set, a ``/simulate``
  request that hasn't answered within the hedge delay races a second
  connection against the first and takes whichever answers first.
  Simulations are deterministic and coalesced server-side, so the
  duplicate is nearly free when it lands on a cache hit — and a big
  tail-latency win when the first connection hit a slow batch;
* **structured errors** — non-retryable responses raise
  :class:`ServiceRequestError` carrying the server's error payload.

Deadlines are measured on the injectable
:class:`~repro.service.clock.Clock`, like everything else in the
package.
"""

from __future__ import annotations

import http.client
import json
import queue as queue_mod
import random
import socket
import threading
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Mapping, Sequence

from repro.service.clock import MONOTONIC_CLOCK, Clock
from repro.sim.config import SchemeConfig, SystemConfig

__all__ = [
    "ServiceClient",
    "ServiceClientError",
    "ServiceRequestError",
    "ServiceUnavailable",
]

#: Upper bound on how long one Retry-After hint may stall the client.
_MAX_RETRY_AFTER_S = 5.0

#: Request header carrying the remaining deadline budget, seconds.
_DEADLINE_HEADER = "X-Repro-Deadline-S"


class ServiceClientError(Exception):
    """Base class for client-side failures."""


class ServiceUnavailable(ServiceClientError):
    """The service could not be reached (or stayed busy) within budget."""


class ServiceRequestError(ServiceClientError):
    """The service answered with a non-retryable error response.

    Attributes:
        status: HTTP status code.
        error: The server's structured ``error`` object (type, message,
            and any extra fields like ``reason`` or ``detail``).
    """

    def __init__(self, status: int, error: Mapping[str, Any]) -> None:
        super().__init__(
            f"HTTP {status}: {error.get('type', 'unknown')} - "
            f"{error.get('message', '')}"
        )
        self.status = status
        self.error = dict(error)


def _payload_dict(config: Any) -> dict:
    """A config dataclass (or ready dict) as a JSON-able object."""
    if is_dataclass(config) and not isinstance(config, type):
        return asdict(config)
    if isinstance(config, Mapping):
        return dict(config)
    raise TypeError(
        f"expected a config dataclass or mapping, got {type(config).__name__}"
    )


class ServiceClient:
    """Talks JSON to a running ``repro serve`` instance.

    Args:
        host / port: Where the service listens.
        timeout: Socket timeout per request, seconds.
        max_attempts: Total tries per request (connection errors and
            429/503 rejections both consume attempts).
        backoff_s: First backoff *ceiling*; doubles per retry.  Actual
            sleeps are full-jitter: uniform in ``[0, ceiling]``.
        deadline_s: Overall budget per logical request across every
            retry and backoff sleep (``None`` = attempts bound only).
            The remaining budget is stamped on each attempt as the
            ``X-Repro-Deadline-S`` header.
        clock: Monotonic time source for the deadline (tests inject a
            fake).
        jitter_seed: Seed for the backoff jitter RNG (``None`` seeds
            from OS entropy).  Two clients with different seeds
            desynchronize even when they fail in lock-step.
        hedge_after_s: When set, a ``/simulate`` request unanswered
            after this many seconds races a second connection and the
            first answer wins (``None`` disables hedging).

    Use as a context manager or call :meth:`close` when done.  One
    client holds one keep-alive connection; use a client per thread.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 30.0,
        max_attempts: int = 5,
        backoff_s: float = 0.05,
        deadline_s: float | None = None,
        clock: Clock | None = None,
        jitter_seed: int | None = None,
        hedge_after_s: float | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(
                f"hedge_after_s must be > 0 when set, got {hedge_after_s}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.hedge_after_s = hedge_after_s
        self.hedges = 0  #: hedged (second) connections launched
        self._rng = random.Random(jitter_seed)
        self._conn: http.client.HTTPConnection | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop the keep-alive connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ----------------------------------------------------

    def healthz(self) -> dict:
        """The service's liveness document (status, version, uptime)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """The full metrics snapshot."""
        return self._request("GET", "/metrics")

    def simulate(
        self,
        app: str,
        scheme: SchemeConfig | Mapping[str, Any] | None = None,
        system: SystemConfig | Mapping[str, Any] | None = None,
    ) -> dict:
        """Run (or fetch) one simulation; returns the result payload."""
        payload: dict[str, Any] = {"app": app}
        if scheme is not None:
            payload["scheme"] = _payload_dict(scheme)
        if system is not None:
            payload["system"] = _payload_dict(system)
        return self.simulate_payload(payload)

    def simulate_payload(self, payload: Mapping[str, Any]) -> dict:
        """Run one simulation from a ready request payload."""
        return self._request("POST", "/simulate", dict(payload))

    def submit_many(
        self,
        payloads: Sequence[Mapping[str, Any]],
        *,
        max_in_flight: int = 8,
        return_exceptions: bool = False,
    ) -> list:
        """Run many ``/simulate`` requests with bounded concurrency.

        The fan-out helper callers used to hand-roll with threads: at
        most ``max_in_flight`` requests are in flight at once, each on
        its own keep-alive connection with this client's full retry /
        backoff / deadline / hedging discipline, and the results come
        back **in payload order**.

        Worker clients draw their jitter seeds from this client's
        seeded RNG, so a seeded client fans out reproducibly.

        Args:
            payloads: Ready ``/simulate`` request payloads.
            max_in_flight: Concurrent in-flight requests (>= 1).
            return_exceptions: When True, a failed request puts its
                exception in its result slot instead of raising; when
                False (default), the first failure (by payload order)
                is raised after all in-flight work drains.

        Returns:
            One response payload (or exception) per request, ordered.
        """
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        payloads = list(payloads)
        if not payloads:
            return []
        results: list = [None] * len(payloads)
        workers = min(max_in_flight, len(payloads))
        if workers == 1:
            for index, payload in enumerate(payloads):
                try:
                    results[index] = self.simulate_payload(payload)
                except ServiceClientError as exc:
                    if not return_exceptions:
                        raise
                    results[index] = exc
            return results
        indices: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        for index in range(len(payloads)):
            indices.put(index)
        failed = threading.Event()

        def drain(client: "ServiceClient") -> None:
            with client:
                while not (failed.is_set() and not return_exceptions):
                    try:
                        index = indices.get_nowait()
                    except queue_mod.Empty:
                        return
                    try:
                        results[index] = client.simulate_payload(
                            payloads[index]
                        )
                    except ServiceClientError as exc:
                        results[index] = exc
                        failed.set()

        threads = [
            threading.Thread(
                target=drain,
                args=(self._clone(),),
                name=f"repro-client-fanout-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if not return_exceptions:
            for result in results:
                if isinstance(result, BaseException):
                    raise result
        return results

    def _clone(self) -> "ServiceClient":
        """A worker client with this client's settings and a derived
        jitter seed (deterministic for a seeded parent)."""
        return ServiceClient(
            host=self.host,
            port=self.port,
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
            deadline_s=self.deadline_s,
            clock=self.clock,
            jitter_seed=self._rng.randrange(2**32),
            hedge_after_s=self.hedge_after_s,
        )

    def sweep(
        self,
        fields: Mapping[str, Sequence],
        scheme: SchemeConfig | Mapping[str, Any] | None = None,
        system: SystemConfig | Mapping[str, Any] | None = None,
        apps: Sequence[str] | None = None,
    ) -> dict:
        """Run a grid sweep; returns ``{"scheme", "apps", "points",
        "failed_points"}``."""
        payload: dict[str, Any] = {
            "fields": {name: list(values) for name, values in fields.items()}
        }
        if scheme is not None:
            payload["scheme"] = _payload_dict(scheme)
        if system is not None:
            payload["system"] = _payload_dict(system)
        if apps is not None:
            payload["apps"] = list(apps)
        return self._request("POST", "/sweep", payload)

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _drop_connection(self) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Mapping[str, Any] | None = None
    ) -> dict:
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        base_headers = {"Content-Type": "application/json"} if body else {}
        ceiling = self.backoff_s
        started = self.clock.monotonic()
        last_error: Exception | None = None

        def remaining_budget() -> float | None:
            if self.deadline_s is None:
                return None
            return self.deadline_s - (self.clock.monotonic() - started)

        def sleep_or_stop(wait: float) -> bool:
            """Back off; False when the overall deadline forbids it."""
            budget = remaining_budget()
            if budget is not None and wait > budget:
                return False
            time.sleep(wait)
            return True

        for attempt in range(self.max_attempts):
            headers = dict(base_headers)
            budget = remaining_budget()
            if budget is not None:
                if budget <= 0:
                    break
                headers[_DEADLINE_HEADER] = f"{budget:.3f}"
            try:
                status, reply_headers, reply = self._once(
                    method, path, body, headers
                )
            except (ConnectionError, socket.timeout, OSError,
                    http.client.HTTPException) as exc:
                self._drop_connection()
                last_error = exc
                wait = self._jittered(ceiling)
                if attempt + 1 >= self.max_attempts or not sleep_or_stop(wait):
                    break
                ceiling *= 2
                continue
            if status in (429, 503):
                # Backpressure and an unavailable service are both
                # "come back later": honour the server's pacing hint,
                # jittered so synchronized clients spread out.
                last_error = ServiceRequestError(
                    status, reply.get("error", {})
                )
                hint = self._retry_after(
                    reply_headers, reply, self._jittered(ceiling)
                )
                wait = self._jittered(hint) if hint > 0 else hint
                if attempt + 1 >= self.max_attempts or not sleep_or_stop(wait):
                    break
                ceiling *= 2
                continue
            if status >= 400:
                raise ServiceRequestError(status, reply.get("error", {}))
            return reply
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.max_attempts} attempt(s): "
            f"{last_error!r}"
        )

    def _jittered(self, ceiling: float) -> float:
        """A full-jitter wait: uniform in ``[0, ceiling]``."""
        return self._rng.uniform(0.0, max(0.0, ceiling))

    def _once(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], dict]:
        if self.hedge_after_s is not None and path == "/simulate":
            return self._once_hedged(method, path, body, headers)
        conn = self._connection()
        status, lowered, reply = self._exchange(
            conn, method, path, body, headers
        )
        if lowered.get("connection", "keep-alive") == "close":
            self._drop_connection()
        return status, lowered, reply

    def _once_hedged(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], dict]:
        """Race a second connection when the first is slow to answer.

        Safe because ``/simulate`` is pure and idempotent, and nearly
        free because the server coalesces the duplicate onto the same
        in-flight computation.  Each racer uses its own one-shot
        connection so a slow loser can be abandoned without corrupting
        the keep-alive stream.
        """
        results: queue_mod.Queue = queue_mod.Queue()

        def racer() -> None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                results.put(("ok", self._exchange(
                    conn, method, path, body, headers
                )))
            except Exception as exc:
                results.put(("err", exc))
            finally:
                conn.close()

        threading.Thread(target=racer, daemon=True).start()
        racers = 1
        try:
            kind, value = results.get(timeout=self.hedge_after_s)
        except queue_mod.Empty:
            self.hedges += 1
            threading.Thread(target=racer, daemon=True).start()
            racers = 2
            kind, value = results.get(timeout=self.timeout + 1.0)
        while kind == "err" and racers > 1:
            # One racer failed; give the survivor its chance.
            racers -= 1
            try:
                kind, value = results.get(timeout=self.timeout + 1.0)
            except queue_mod.Empty:
                break
        if kind == "err":
            raise value
        return value

    def _exchange(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], dict]:
        conn.request(method, path, body=body, headers=dict(headers))
        response = conn.getresponse()
        raw = response.read()
        lowered = {
            name.lower(): value for name, value in response.getheaders()
        }
        try:
            reply = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise http.client.HTTPException(
                f"undecodable response body: {raw[:200]!r}"
            ) from exc
        if not isinstance(reply, dict):
            reply = {"value": reply}
        return response.status, lowered, reply

    @staticmethod
    def _retry_after(
        headers: Mapping[str, str], reply: Mapping[str, Any], fallback: float
    ) -> float:
        hint = headers.get("retry-after")
        if hint is None:
            hint = reply.get("error", {}).get("retry_after_s")
        try:
            wait = float(hint) if hint is not None else fallback
        except (TypeError, ValueError):
            wait = fallback
        return max(0.0, min(wait, _MAX_RETRY_AFTER_S))
