"""Figure 12: distribution of 4-bit chunk values on the L2 interface.

The paper measures ~31 % zero chunks with the non-zero values spread
relatively uniformly — the observation motivating zero skipping.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import StagedEngine
from repro.workloads.suites import PARALLEL_SUITE

__all__ = ["run"]


def run(num_blocks: int = 6000, seed: int = 1) -> dict:
    """Suite-average chunk-value histogram and zero fraction."""
    engine = StagedEngine()
    histogram = np.zeros(16)
    zero_fractions = {}
    for app in PARALLEL_SUITE:
        stats = engine.chunk_statistics(app, num_blocks, seed)
        histogram += np.asarray(stats["value_histogram"])
        zero_fractions[app.name] = stats["zero_fraction"]
    histogram /= len(PARALLEL_SUITE)
    return {
        "value_histogram": histogram.tolist(),
        "zero_fraction": float(histogram[0]),
        "zero_fraction_by_app": zero_fractions,
        "paper_zero_fraction": 0.31,
    }
