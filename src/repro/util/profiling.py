"""Lightweight named-timer registry for hot-path profiling.

The staged simulation engine wraps each stage in a :func:`timed`
block.  Profiling is off by default and the disabled
path is a single attribute check, so instrumented code pays nothing in
normal runs; ``repro run figNN --profile`` (or
:meth:`TimerRegistry.enable`) turns collection on and prints a
per-section table afterwards.

Sections are named hierarchically with dots (``stage.workload``,
``stage.timing``) so reports group naturally.  Timers nest and
re-enter freely; each ``timed`` block adds its own wall-clock span to
its section, so a section's total can exceed the run's wall time when
blocks overlap on the stack.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["PROFILER", "SectionStat", "TimerRegistry", "timed"]


@dataclass
class SectionStat:
    """Accumulated wall-clock time for one named section."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


class TimerRegistry:
    """Accumulates wall-clock time per named section.

    One process-global instance (:data:`PROFILER`) backs the ``timed``
    helper; tests may construct private registries.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._stats: dict[str, SectionStat] = {}

    def enable(self) -> None:
        """Start collecting timings."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting timings (already collected data is kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Discard all collected timings."""
        self._stats.clear()

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = SectionStat()
            stat.calls += 1
            stat.seconds += elapsed

    def record(self, name: str, seconds: float) -> None:
        """Fold an externally measured span into ``name``.

        For callers that already hold a duration (e.g. the benchmark
        harness) and want it in the same report.
        """
        if not self.enabled:
            return
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = SectionStat()
        stat.calls += 1
        stat.seconds += seconds

    def report(self) -> dict[str, SectionStat]:
        """Sections observed so far, slowest first."""
        return dict(
            sorted(
                self._stats.items(),
                key=lambda item: item[1].seconds,
                reverse=True,
            )
        )

    def format_report(self) -> str:
        """A fixed-width table of the collected sections."""
        stats = self.report()
        if not stats:
            return "no profiling data collected"
        width = max(len(name) for name in stats)
        lines = [
            f"{'section':{width}s} {'calls':>8s} {'total':>10s} {'mean':>10s}"
        ]
        for name, stat in stats.items():
            lines.append(
                f"{name:{width}s} {stat.calls:8d} "
                f"{stat.seconds:9.3f}s {stat.mean_seconds * 1e3:8.3f}ms"
            )
        return "\n".join(lines)


#: The process-global registry that :func:`timed` records into.
PROFILER = TimerRegistry()


def timed(name: str) -> "AbstractContextManager[None]":
    """Context manager timing a block into the global registry."""
    return PROFILER.section(name)
