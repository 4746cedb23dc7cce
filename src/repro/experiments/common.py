"""Shared helpers for the per-figure experiment modules.

Each ``figNN`` module exposes ``run(...) -> dict`` returning the
figure's series as plain data (app names, values, normalizations), so
the benchmark harnesses and any plotting front-end stay trivial.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.config import SchemeConfig, SystemConfig
from repro.util.stats import geomean
from repro.sim.engine import SimJob, simulate_many
from repro.sim.metrics import RunResult
from repro.workloads.profiles import AppProfile
from repro.workloads.suites import PARALLEL_SUITE

__all__ = [
    "geomean",
    "run_suite",
    "ratio_by_app",
    "DEFAULT_SCHEMES",
    "SWEEP_SYSTEM",
]

#: Figure 16's scheme order, as (label, SchemeConfig) pairs.
DEFAULT_SCHEMES: tuple[tuple[str, SchemeConfig], ...] = (
    ("Conventional Binary", SchemeConfig(name="binary")),
    ("Dynamic Zero Compression", SchemeConfig(name="zero-compression")),
    ("Bus Invert Coding", SchemeConfig(name="bus-invert")),
    ("Zero Skipped Bus Invert", SchemeConfig(name="bus-invert+zero-skip")),
    ("Encoded Zero Skipped Bus Invert", SchemeConfig(name="bus-invert+encoded-zero-skip")),
    ("Basic DESC", SchemeConfig(name="desc", data_wires=128)),
    ("Zero Skipped DESC", SchemeConfig(name="desc+zero-skip", data_wires=128)),
    ("Last Value Skipped DESC", SchemeConfig(name="desc+last-value-skip", data_wires=128)),
)

#: Smaller sample for wide parameter sweeps (Figures 14/22/25/26/27).
SWEEP_SYSTEM = SystemConfig(sample_blocks=3000)


# Re-exported for the figure modules; the implementation lives in
# repro.util.stats so non-experiment code can use it without importing
# this package.


def run_suite(
    scheme: SchemeConfig,
    system: SystemConfig | None = None,
    apps: Sequence[AppProfile] = PARALLEL_SUITE,
) -> list[RunResult]:
    """Simulate one scheme over a whole application suite.

    Runs serially through the staged engine's batch API: a suite is
    too small a batch for a process pool to pay for its start-up.
    """
    jobs = [SimJob.of(app, scheme, system) for app in apps]
    return simulate_many(jobs)


def ratio_by_app(
    results: Sequence[RunResult],
    baseline: Sequence[RunResult],
    metric,
) -> dict[str, float]:
    """Per-app ``metric(result) / metric(baseline)`` plus the geomean."""
    ratios = {
        r.app: metric(r) / metric(b) for r, b in zip(results, baseline, strict=True)
    }
    ratios["Geomean"] = geomean(ratios.values())
    return ratios
