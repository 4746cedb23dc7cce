"""Seed stability: the headline results must not be sampling artifacts.

Re-runs the central comparison (zero-skipped DESC vs binary) with
several workload-generator seeds and checks the spread of the energy
and time ratios.  A reproduction whose conclusions flip with the random
seed would be worthless; this bench pins the variance.
"""

from __future__ import annotations

from repro.experiments.common import geomean, run_suite
from repro.sim.config import SystemConfig, baseline_scheme, desc_scheme

_SEEDS = (1, 2, 3, 4, 5)


def test_seed_stability(run_once):
    def sweep():
        energy_ratios, time_ratios = [], []
        for seed in _SEEDS:
            system = SystemConfig(sample_blocks=2000, seed=seed)
            binary = run_suite(baseline_scheme("binary"), system)
            desc = run_suite(desc_scheme("zero"), system)
            energy_ratios.append(geomean(
                d.l2_energy_j / b.l2_energy_j for d, b in zip(desc, binary, strict=True)
            ))
            time_ratios.append(geomean(
                d.cycles / b.cycles for d, b in zip(desc, binary, strict=True)
            ))
        return energy_ratios, time_ratios

    energy_ratios, time_ratios = run_once(sweep)
    print("\n=== Seed stability of the headline comparison ===")
    for seed, e, t in zip(_SEEDS, energy_ratios, time_ratios, strict=True):
        print(f"  seed {seed}: L2 energy {e:.4f}  time {t:.4f}")
    e_spread = max(energy_ratios) - min(energy_ratios)
    t_spread = max(time_ratios) - min(time_ratios)
    print(f"  spreads: energy {e_spread:.4f}, time {t_spread:.4f}")
    # The ratios must be stable to well under a point across seeds.
    assert e_spread < 0.01
    assert t_spread < 0.005
    # And the conclusion itself holds for every seed.
    assert all(e < 0.65 for e in energy_ratios)
    assert all(1.0 <= t < 1.04 for t in time_ratios)
