"""The asyncio HTTP front-end of the simulation service.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
stdlib only, JSON in and out, keep-alive connections — exposing the
:class:`~repro.service.pipeline.SimulationService` pipeline:

========  =============  ===========================================
method    path           meaning
========  =============  ===========================================
GET       ``/healthz``   liveness: status, version, uptime, queue
GET       ``/metrics``   the full metrics snapshot (JSON)
POST      ``/simulate``  one simulation request (see codec)
POST      ``/sweep``     a grid sweep, expanded through the pipeline
========  =============  ===========================================

Error mapping is structural, never a hung connection: malformed
requests (including a negative ``Content-Length`` or a non-finite
deadline) are ``400``, an over-full queue is ``429`` with a
``Retry-After`` header, a service that cannot run the job (stopping,
or its drain task died) is ``503``, an expired request deadline is
``504``, and an engine failure is ``500`` — each with a JSON body
naming the error type, so clients branch on data rather than prose.
Once the drain task has died, ``/healthz`` answers ``503`` too, so a
process manager restarts the process.

**Deadline propagation**: a client may stamp an
``X-Repro-Deadline-S`` header (remaining budget, seconds) on
``/simulate`` and ``/sweep``; the budget rides the request through
every pipeline stage (admission refuses spent budgets, the batcher
cancels unservable jobs) and an exhausted budget answers with a
structured ``504 deadline-exceeded``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from typing import Any, Awaitable, Callable, Mapping

from repro.service import codec
from repro.service.clock import MONOTONIC_CLOCK, Clock
from repro.service.pipeline import (
    Backpressure,
    DeadlineExceeded,
    ServiceError,
    SimulationFailed,
    SimulationService,
)
from repro.sim.engine import SimJob
from repro.sim.sweeps import aggregate_points, expand_grid
from repro.util.version import package_version
from repro.workloads.profiles import profile
from repro.workloads.suites import PARALLEL_SUITE

__all__ = ["ServiceServer"]

_log = logging.getLogger("repro.service.server")

#: Largest request body the server will read, bytes.
_MAX_BODY = 1 << 20
#: Largest request line / header section the server will read, bytes.
_MAX_HEADER = 32 << 10
#: Seconds any one socket wait may take: an idle keep-alive connection,
#: a request head or body that stops arriving, a client that stops
#: reading its response.
_IDLE_TIMEOUT_S = 30.0
#: Request header carrying the client's remaining deadline budget.
_DEADLINE_HEADER = "x-repro-deadline-s"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error the connection loop turns into a structured response."""

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: Mapping[str, str] | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.message = message
        self.headers = dict(headers or {})
        self.extra = dict(extra or {})


class _abort_after:
    """Abort ``transport`` if the ``async with`` body outlasts ``seconds``.

    Bounds one socket wait with a loop timer rather than
    ``asyncio.wait_for``, which on Python 3.10 and 3.11 wraps every
    await in a task of its own.  On expiry the transport is aborted, so
    the wait inside ends as a closed connection (``IncompleteReadError``
    or ``ConnectionError``), which the connection loop already treats
    as a client that went away.  Only socket waits go inside: the
    engine's computation is never under this bound.
    """

    __slots__ = ("_transport", "_seconds", "_timer")

    def __init__(self, transport: asyncio.WriteTransport, seconds: float) -> None:
        self._transport = transport
        self._seconds = seconds
        self._timer: asyncio.TimerHandle | None = None

    async def __aenter__(self) -> None:
        self._timer = asyncio.get_running_loop().call_later(
            self._seconds, self._transport.abort
        )

    async def __aexit__(self, *exc_info: object) -> None:
        assert self._timer is not None
        self._timer.cancel()


class ServiceServer:
    """Serves a :class:`SimulationService` over local HTTP+JSON.

    Args:
        service: The (started) pipeline to expose.
        host / port: Bind address; port 0 picks an ephemeral port
            (read it back from :attr:`port` after :meth:`start`).
        clock: Monotonic time source for the uptime reading.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Clock | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._server: asyncio.Server | None = None
        self._started_at: float | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (resolves ephemeral port)."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self.clock.monotonic()
        _log.info("repro service listening on %s:%d", self.host, self.port)

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``repro serve`` foreground loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()  # lint-ok: R006 - foreground loop

    async def stop(self) -> None:
        """Close the listener, drop live connections, stop the pipeline."""
        if self._server is not None:
            self._server.close()
            # Closed above; this only reaps the accept loop.
            await self._server.wait_closed()  # lint-ok: R006
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        await self.service.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away (or was cut off); nothing to answer
        # Top of the per-connection task: stop() cancels these tasks and
        # then awaits them, so swallowing the cancellation here is the
        # shutdown protocol — nothing above this frame needs to see it.
        except asyncio.CancelledError:  # lint-ok: R007
            pass  # server shutting down; drop the connection quietly
        except Exception:
            _log.exception("connection handler failed")
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                async with _abort_after(writer.transport, _IDLE_TIMEOUT_S):
                    await writer.wait_closed()
            # Best-effort socket teardown while already unwinding; a
            # second cancellation here must not mask the original exit.
            except (  # lint-ok: R007
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            async with _abort_after(writer.transport, _IDLE_TIMEOUT_S):
                head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await _respond_error(
                writer,
                _HttpError(413, "header-too-large", "header section too large"),
            )
            return False
        if len(head) > _MAX_HEADER:
            await _respond_error(
                writer,
                _HttpError(413, "header-too-large", "header section too large"),
            )
            return False
        try:
            method, path, headers = _parse_head(head)
        except ValueError as exc:
            await _respond_error(
                writer, _HttpError(400, "malformed-request", str(exc))
            )
            return False
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            await _respond_error(
                writer,
                _HttpError(400, "malformed-request",
                           f"bad Content-Length {length_text!r}"),
            )
            return False
        if length < 0:
            await _respond_error(
                writer,
                _HttpError(400, "malformed-request",
                           f"negative Content-Length {length}"),
            )
            return False
        if length > _MAX_BODY:
            await _respond_error(
                writer,
                _HttpError(413, "payload-too-large",
                           f"body of {length} bytes exceeds {_MAX_BODY}"),
            )
            return False
        if length:
            async with _abort_after(writer.transport, _IDLE_TIMEOUT_S):
                body = await reader.readexactly(length)
        keep_alive = headers.get("connection", "keep-alive") != "close"
        try:
            deadline_s = _parse_deadline(headers)
            status, payload = await self._route(method, path, body, deadline_s)
        except _HttpError as exc:
            await _respond_error(writer, exc, keep_alive)
            return keep_alive
        except asyncio.CancelledError:
            raise  # shutdown must not be answered as a 500
        except Exception as exc:  # a route handler bug; still answer
            _log.exception("unhandled error serving %s %s", method, path)
            await _respond_error(
                writer,
                _HttpError(500, "internal-error", repr(exc)),
                keep_alive,
            )
            return keep_alive
        await _write_response(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    # -- routing -------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        deadline_s: float | None = None,
    ) -> tuple[int, Any]:
        handlers: dict[tuple[str, str], Callable[..., Awaitable]] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("POST", "/simulate"): self._simulate,
            ("POST", "/sweep"): self._sweep,
        }
        known_paths = {p for _, p in handlers}
        handler = handlers.get((method, path))
        if handler is None:
            if path in known_paths:
                raise _HttpError(
                    405, "method-not-allowed",
                    f"{method} is not supported on {path}",
                )
            raise _HttpError(404, "not-found", f"no route for {path}")
        if method == "POST":
            return await handler(_parse_json(body), deadline_s)
        return await handler()

    async def _healthz(self) -> tuple[int, Any]:
        if not self.service.batcher.running:
            raise _HttpError(
                503, "service-unavailable",
                "the service's drain task has died; restart the process",
            )
        uptime = (
            self.clock.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        queue_depth = self.service.metrics.gauge("queue_depth").value
        return 200, {
            "status": "ok",
            "version": package_version(),
            "uptime_s": round(uptime, 3),
            "queue_depth": queue_depth,
            "max_queue": self.service.config.max_queue,
        }

    async def _metrics(self) -> tuple[int, Any]:
        snapshot = self.service.snapshot()
        snapshot["version"] = package_version()
        return 200, snapshot

    async def _simulate(
        self, payload: Any, deadline_s: float | None = None
    ) -> tuple[int, Any]:
        try:
            job = codec.job_from_payload(payload)
        except codec.BadRequest as exc:
            raise _HttpError(400, "bad-request", str(exc)) from exc
        result = await self._submit(job, deadline_s)
        return 200, codec.result_to_payload(result)

    async def _sweep(
        self, payload: Any, deadline_s: float | None = None
    ) -> tuple[int, Any]:
        """A grid sweep, expanded into pipeline jobs (see sweeps doc).

        Shape::

            {"scheme": {...}, "fields": {"num_banks": [2, 8, 32]},
             "system": {...}, "apps": ["Ocean", ...]}   # apps optional
        """
        if not isinstance(payload, Mapping):
            raise _HttpError(400, "bad-request", "sweep must be a JSON object")
        unknown = sorted(set(payload) - {"scheme", "fields", "system", "apps"})
        if unknown:
            raise _HttpError(
                400, "bad-request",
                f"unknown sweep field(s) {', '.join(unknown)}",
            )
        fields = payload.get("fields")
        if not isinstance(fields, Mapping) or not fields:
            raise _HttpError(
                400, "bad-request",
                "sweep needs a non-empty 'fields' object of value lists",
            )
        try:
            scheme = codec.scheme_from_payload(payload.get("scheme", {}))
            system = payload.get("system", {})
            codec.system_from_payload(system)  # the base's own errors first
            apps = [
                profile(name) for name in payload.get(
                    "apps", [app.name for app in PARALLEL_SUITE]
                )
            ]
            combos = expand_grid(
                {name: list(values) for name, values in fields.items()}
            )
            # Each combination parses exactly as a /simulate system would.
            systems = [
                codec.system_from_payload({**system, **params})
                for params in combos
            ]
            jobs = [
                SimJob(app=app, scheme=scheme, system=combo_system)
                for combo_system in systems
                for app in apps
            ]
        except (codec.BadRequest, TypeError, ValueError) as exc:
            raise _HttpError(400, "bad-request", str(exc)) from exc
        results = await self._submit_many(jobs, deadline_s)
        points = aggregate_points(combos, apps, results)
        return 200, {
            "scheme": scheme.label(),
            "apps": [app.name for app in apps],
            "points": [
                {
                    "params": point.params,
                    "cycles": point.cycles,
                    "l2_energy_j": point.l2_energy_j,
                    "processor_energy_j": point.processor_energy_j,
                    "hit_latency": point.hit_latency,
                    "edp": point.edp,
                }
                for point in points
            ],
            "failed_points": [
                {
                    "params": failed.params,
                    "app": failed.app,
                    "reason": failed.reason,
                    "attempts": failed.attempts,
                }
                for failed in points.failed_points
            ],
        }

    async def _submit(self, job: SimJob, deadline_s: float | None = None):
        try:
            return await self.service.submit(job, deadline_s=deadline_s)
        except Backpressure as exc:
            raise _HttpError(
                429, "backpressure", str(exc),
                headers={"Retry-After": f"{exc.retry_after_s:.3f}"},
                extra={"retry_after_s": exc.retry_after_s,
                       "queue_depth": exc.queue_depth},
            ) from exc
        except DeadlineExceeded as exc:
            raise _deadline_exceeded_error(exc) from exc
        except SimulationFailed as exc:
            raise _simulation_failed_error(exc) from exc
        except ServiceError as exc:
            raise _HttpError(503, "service-unavailable", str(exc)) from exc

    async def _submit_many(
        self, jobs: list[SimJob], deadline_s: float | None = None
    ):
        try:
            return await self.service.submit_many(jobs, deadline_s=deadline_s)
        except DeadlineExceeded as exc:
            raise _deadline_exceeded_error(exc) from exc
        except SimulationFailed as exc:
            raise _simulation_failed_error(exc) from exc
        except ServiceError as exc:
            raise _HttpError(503, "service-unavailable", str(exc)) from exc


def _simulation_failed_error(exc: SimulationFailed) -> _HttpError:
    return _HttpError(
        500, "simulation-failed", str(exc),
        extra={"reason": exc.reason, "attempts": exc.attempts,
               "detail": exc.detail[-2000:]},
    )


def _deadline_exceeded_error(exc: DeadlineExceeded) -> _HttpError:
    return _HttpError(
        504, "deadline-exceeded", str(exc), extra={"where": exc.where}
    )


def _parse_deadline(headers: Mapping[str, str]) -> float | None:
    """The ``X-Repro-Deadline-S`` budget, or ``None`` when absent.

    A malformed, non-finite, or non-positive budget is a client error,
    surfaced as a structured 400 rather than silently treated as
    unbounded.
    """
    raw = headers.get(_DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise _HttpError(
            400, "bad-request",
            f"bad {_DEADLINE_HEADER} value {raw!r}: expected seconds",
        ) from None
    if not math.isfinite(value):
        raise _HttpError(
            400, "bad-request",
            f"bad {_DEADLINE_HEADER} value {raw!r}: must be finite",
        )
    if value <= 0:
        raise _HttpError(
            400, "bad-request",
            f"bad {_DEADLINE_HEADER} value {raw!r}: must be > 0",
        )
    return value


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Parse the request line + headers; raises ``ValueError`` when bad."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ValueError("undecodable header bytes") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ValueError(f"unsupported protocol {version!r}")
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


def _parse_json(body: bytes) -> Any:
    if not body:
        raise _HttpError(400, "bad-request", "request body is empty")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpError(
            400, "bad-request", f"body is not valid JSON: {exc}"
        ) from exc


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    keep_alive: bool = True,
    headers: Mapping[str, str] | None = None,
) -> None:
    body = codec.encode_json(payload)
    reason = _STATUS_TEXT.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    # Bounded: a client that stops reading must not pin the handler.
    async with _abort_after(writer.transport, _IDLE_TIMEOUT_S):
        await writer.drain()


async def _respond_error(
    writer: asyncio.StreamWriter, error: _HttpError, keep_alive: bool = False
) -> None:
    payload = {
        "error": {
            "type": error.error_type,
            "message": error.message,
            **error.extra,
        }
    }
    await _write_response(
        writer, error.status, payload,
        keep_alive=keep_alive, headers=error.headers,
    )
