"""Closed-loop HTTP/1.1 load generator: one process, one connection per list.

Each connection sends its next request only after the previous reply
arrived, the way ``ServiceClient`` callers wait.  The client is raw on
purpose: a 429 or 503 is recorded as a refusal, never retried, and a
connection error fails the request in flight.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from spans import RID_HEADER
from traffic import Item, Traffic

__all__ = ["Sample", "fetch", "run_traffic"]

_RID = RID_HEADER.lower().encode()


@dataclass(slots=True)
class Sample:
    """One request as the client saw it."""

    item: Item
    connection: int
    start: float
    end: float
    status: int | None  # None: no response (connection failure)
    body: bytes = b""
    rid: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3 if self.ok else float("inf")


def _request(method: str, path: str, body: bytes = b"", close: bool = False) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    if body:
        head += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, str | None]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    length = 0
    rid = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == _RID:
            rid = value.strip().decode()
    body = await reader.readexactly(length) if length else b""
    return status, body, rid


async def fetch(port: int, method: str, path: str, timeout: float = 30.0):
    """One request on a fresh connection: ``(status, body)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), timeout
    )
    try:
        writer.write(_request(method, path, close=True))
        status, body, _ = await asyncio.wait_for(_read_response(reader), timeout)
        return status, body
    finally:
        writer.close()


class _Pairs:
    """Releases a ``dup`` item once every connection has reached it."""

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self.arrived: dict[int, int] = {}
        self.ready: dict[int, asyncio.Event] = {}
        self.broken = False

    async def meet(self, index: int) -> None:
        event = self.ready.setdefault(index, asyncio.Event())
        self.arrived[index] = self.arrived.get(index, 0) + 1
        if self.arrived[index] == self.parties or self.broken:
            event.set()
        await event.wait()

    def abandon(self) -> None:
        """A connection gave up: never hold the others back again."""
        self.broken = True
        for event in self.ready.values():
            event.set()


async def _connection(
    port: int, conn: int, items, traffic: Traffic, pairs: _Pairs, out: list
) -> None:
    reader = writer = None
    try:
        for item in items:
            if item.kind == "dup":
                await pairs.meet(item.index)
            if writer is None:
                try:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                except OSError:
                    now = time.perf_counter()
                    out.append(Sample(item, conn, now, now, None))
                    continue
            start = time.perf_counter()
            try:
                writer.write(_request("POST", "/simulate", traffic.bodies[item.point]))
                status, body, rid = await _read_response(reader)
            except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ValueError, IndexError):
                out.append(Sample(item, conn, start, time.perf_counter(), None))
                writer.close()
                reader = writer = None
                continue
            out.append(Sample(item, conn, start, time.perf_counter(), status, body, rid))
    finally:
        pairs.abandon()
        if writer is not None:
            writer.close()


async def _run(port: int, traffic: Traffic, timeout: float) -> tuple[list, float, float]:
    pairs = _Pairs(len(traffic.connections))
    outs: list[list[Sample]] = [[] for _ in traffic.connections]
    tasks = [
        asyncio.create_task(_connection(port, conn, items, traffic, pairs, outs[conn]))
        for conn, items in enumerate(traffic.connections)
    ]
    begin = time.perf_counter()
    _, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    end = time.perf_counter()
    samples = [s for out in outs for s in out]
    # Requests never sent (timeout) fail with no response.
    answered = {(s.connection, s.item.index) for s in samples}
    for conn, items in enumerate(traffic.connections):
        for item in items:
            if (conn, item.index) not in answered:
                samples.append(Sample(item, conn, end, end, None))
    return samples, begin, end


def run_traffic(port: int, traffic: Traffic, timeout: float = 60.0):
    """Drive ``traffic`` against ``127.0.0.1:port``.

    Returns ``(samples, begin, end)``: one :class:`Sample` per request
    in the lists, and the perf-counter span of the loaded phase.
    """
    return asyncio.run(_run(port, traffic, timeout))
