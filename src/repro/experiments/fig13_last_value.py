"""Figure 13: fraction of chunks matching the previously sent chunk.

The paper measures 39 % on (geometric) average — the observation
motivating last-value skipping.
"""

from __future__ import annotations

from repro.experiments.common import geomean
from repro.sim.engine import StagedEngine
from repro.workloads.suites import PARALLEL_SUITE

__all__ = ["run"]


def run(num_blocks: int = 6000, seed: int = 1) -> dict:
    """Per-application repeated-chunk fraction plus the geomean."""
    engine = StagedEngine()
    fractions = {}
    for app in PARALLEL_SUITE:
        stats = engine.chunk_statistics(app, num_blocks, seed)
        fractions[app.name] = stats["last_value_fraction"]
    fractions["Geomean"] = geomean(fractions.values())
    return {"last_value_fraction": fractions, "paper_geomean": 0.39}
