"""Span records, percentiles and self-time attribution.

Pure functions and one small recorder class, shared by the benchmark
(which reads span files back) and the traced launcher (which records
them inside the program's process).  Nothing here imports the
program.

A span is the tuple ``(name, start, end, parent, rid)``: a layer name,
two ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so
spans from the load generator and the server share one clock), the
index of the enclosing span in the same list (or ``None``) and the
request id it belongs to (or ``None``).
"""

from __future__ import annotations

import contextvars
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "RID_HEADER",
    "Recorder",
    "attribute",
    "load",
    "percentile",
    "self_times",
]

#: Response header naming the server-side request id of a traced server.
RID_HEADER = "X-Perfbench-Request-Id"

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """Keeps spans, counters and events in memory until :meth:`dump`.

    The enclosing span and the request id travel in context variables,
    so nesting is tracked per thread and per asyncio task.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.events: dict[str, list] = defaultdict(list)

    def open(self, name: str) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, _CURRENT.get(), _REQUEST.get()]
        )
        return index, _CURRENT.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][2] = time.perf_counter()
        _CURRENT.reset(token)

    @contextmanager
    def span(self, name: str):
        index, token = self.open(name)
        try:
            yield
        finally:
            self.close(index, token)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def event(self, name: str, value) -> None:
        self.events[name].append(value)

    @staticmethod
    def set_request(rid: str | None) -> None:
        """Tag every span opened later in this context with ``rid``."""
        _REQUEST.set(rid)

    @staticmethod
    def request() -> str | None:
        return _REQUEST.get()

    def dump(self, path: str) -> None:
        # A span still open at exit (an interrupted call) ends now.
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "events": dict(self.events),
                },
                handle,
            )


def load(path: str) -> dict:
    """A span file written by :meth:`Recorder.dump`."""
    with open(path) as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks.

    ``inf`` entries (failed operations) sort last, so they push the
    upper percentiles to ``inf`` once they reach them.  An empty input
    gives ``nan``.
    """
    data = sorted(values)
    if not data:
        return math.nan
    rank = q * (len(data) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi or math.isinf(data[hi]):
        return data[hi]
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are the spans naming it as parent; overlapping children
    are merged before their cover is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, rid) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def attribute(
    spans, begin: float, end: float, waiting: frozenset = frozenset()
) -> tuple[dict[str, float], float]:
    """Split the interval ``[begin, end]`` among span names.

    At every instant the time goes to the innermost open spans (open
    spans with no open child); when several are open at once, on other
    threads or asyncio tasks, they share that instant equally.  Spans
    named in ``waiting`` (a client round trip, an awaiting coroutine)
    get an instant only when no other innermost span is open.  For
    strictly nested spans on one thread this is exactly each span's
    self time.  Returns ``(seconds per name, unattributed seconds)``;
    the two add up to ``end - begin``.
    """
    events = []
    for index, (name, start, stop, parent, rid) in enumerate(spans):
        start, stop = max(start, begin), min(stop, end)
        if stop > start:
            events.append((start, 1, index))
            events.append((stop, 0, index))
    events.sort()
    totals: dict[str, float] = defaultdict(float)
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    # Innermost open spans: [working, waiting].
    innermost: tuple[set[int], set[int]] = (set(), set())

    def tier(span: int) -> set[int]:
        return innermost[spans[span][0] in waiting]

    unattributed = 0.0
    cursor = begin
    for when, kind, index in events:
        if when > cursor:
            active = innermost[0] or innermost[1]
            if active:
                share = (when - cursor) / len(active)
                for span in active:
                    totals[spans[span][0]] += share
            else:
                unattributed += when - cursor
            cursor = when
        parent = spans[index][3]
        if kind == 1:
            is_open.add(index)
            if open_children[index] == 0:
                tier(index).add(index)
            if parent in is_open:
                open_children[parent] += 1
                tier(parent).discard(parent)
        else:
            is_open.discard(index)
            tier(index).discard(index)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    tier(parent).add(parent)
    if end > cursor:
        unattributed += end - cursor
    return dict(totals), unattributed
