"""A small counters/gauges/histograms registry for the service.

The service pipeline records its operational signals — queue depth,
coalesce and store hit rates, batch sizes, service latency percentiles,
failure counts — in one :class:`MetricsRegistry`, which
the HTTP layer serializes at ``/metrics`` and ``repro bench`` reuses
for its live-traffic tier.  Plain data structures, no external
dependencies, thread-safe: the event loop, executor threads, and the
bench harness all write concurrently.

Histograms keep a bounded ring of recent observations (plus exact
count/sum over all of them), so percentile queries stay cheap and the
registry cannot grow without bound under sustained traffic.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing integer."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time numeric reading (queue depth, pool width, ...)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the reading."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the reading by ``delta`` (either sign)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Count/sum plus percentiles over a bounded ring of observations.

    Args:
        max_samples: Observations retained for percentile queries; the
            count and sum always cover every observation ever made.
    """

    def __init__(self, max_samples: int = 2048) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self._max_samples = max_samples
        self._samples: list[float] = []
        self._next = 0  # ring cursor once the buffer is full
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._max_samples

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained samples.

        Nearest-rank on the sorted ring; ``nan`` when nothing has been
        observed yet.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return math.nan
        rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict:
        """count/mean/min/max/p50/p95 as a JSON-ready dict."""
        with self._lock:
            ordered = sorted(self._samples)
            count = self._count
            total = self._sum
        if not ordered:
            return {"count": 0, "mean": None, "min": None, "max": None,
                    "p50": None, "p95": None}

        def rank(q: float) -> float:
            return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]

        return {
            "count": count,
            "mean": total / count,
            "min": ordered[0],
            "max": ordered[-1],
            "p50": rank(50),
            "p95": rank(95),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with one JSON snapshot.

    Instruments are created on first use and live for the registry's
    lifetime, so concurrent readers always see every name that was ever
    recorded (a scrape never races a metric into or out of existence).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str, max_samples: int = 2048) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(max_samples=max_samples)
            return self._histograms[name]

    def names(self) -> Iterable[str]:
        """Every instrument name currently registered, sorted."""
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> dict:
        """A JSON-ready view of every instrument, stable-keyed."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].summary() for name in sorted(histograms)
            },
        }
