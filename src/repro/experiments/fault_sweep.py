"""Fault sweep: drop rate × resync interval × ECC layout.

The robustness companion to the paper's Section 3.2.3 ECC discussion:
DESC's level-encoded signaling turns a single dropped toggle into a
persistent counter desynchronization, so reliability is set by three
interacting knobs — the raw fault rate of the wires, how often the link
pays for a resynchronization strobe, and whether the Figure 9
interleaved SECDED layout protects the payload.  This experiment sweeps
all three and reports, per grid point, the residual error rates
(pre/post ECC), the detected-vs-silent corruption split, the recovery
latency, and the energy/cycle overhead of the recovery protocol.

Campaigns run through :meth:`repro.sim.engine.StagedEngine.
fault_campaigns`, so they are store-cached, pool-parallel, and
failure-isolated like every other batch job; a campaign that fails
reports a ``failed`` row instead of sinking the sweep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.campaign import FaultCampaignConfig, sweep_grid
from repro.faults.processes import FaultConfig
from repro.sim.engine import FailedJob, StagedEngine

__all__ = ["run", "DROP_RATES", "RESYNC_INTERVALS"]

#: Per-wire per-cycle toggle-drop probabilities swept by default.  The
#: top rate is deliberately brutal — every block sees multiple faults —
#: so the recovery protocol's behaviour under stress is visible.
DROP_RATES: tuple[float, ...] = (0.0, 5e-4, 2e-3, 8e-3)

#: Blocks between periodic resync strobes (None = watchdog-forced only).
RESYNC_INTERVALS: tuple[int | None, ...] = (None, 16, 4)

_QUICK_DROP_RATES: tuple[float, ...] = (0.0, 2e-3)
_QUICK_RESYNC_INTERVALS: tuple[int | None, ...] = (None, 4)


def _base_config(quick: bool, seed: int) -> FaultCampaignConfig:
    """The anchor campaign the grid varies around.

    Quick mode shrinks the geometry to a 64-bit block over four 16-bit
    SECDED segments — same interleaving structure, a fraction of the
    wires — so CI smoke runs finish in seconds.
    """
    fault = FaultConfig(glitch_rate=5e-4, seed=seed)
    if quick:
        return FaultCampaignConfig(
            fault=fault, num_blocks=24, block_bits=64, segment_bits=16,
            data_seed=seed + 1,
        )
    return FaultCampaignConfig(
        fault=fault, num_blocks=64, block_bits=512, segment_bits=128,
        data_seed=seed + 1,
    )


def run(
    quick: bool = False,
    seed: int = 0,
    max_workers: int = 1,
) -> dict:
    """Sweep fault rate × resync interval × ECC; returns a result table.

    Pure in ``seed``: the same seed gives the same table for any
    ``max_workers`` (campaigns are seeded and the engine is
    deterministic under parallel execution).
    """
    base = _base_config(quick, seed)
    grid = sweep_grid(
        base,
        drop_rates=_QUICK_DROP_RATES if quick else DROP_RATES,
        resync_intervals=(
            _QUICK_RESYNC_INTERVALS if quick else RESYNC_INTERVALS
        ),
    )
    engine = StagedEngine()
    outcomes = engine.fault_campaigns(grid, max_workers=max_workers)

    rows = []
    failed = 0
    for config, outcome in zip(grid, outcomes, strict=True):
        if isinstance(outcome, FailedJob):
            failed += 1
            rows.append({
                "drop_rate": config.fault.drop_rate,
                "resync_interval": config.resync_interval,
                "ecc": config.use_ecc,
                "failed": outcome.reason,
            })
            continue
        s = outcome.stats
        rows.append({
            "drop_rate": config.fault.drop_rate,
            "resync_interval": config.resync_interval,
            "ecc": config.use_ecc,
            "blocks_sent": s.blocks_sent,
            "blocks_lost": s.blocks_lost,
            "clean": s.clean_blocks,
            "corrected": s.corrected_blocks,
            "detected": s.detected_blocks,
            "silent": s.silent_blocks,
            "chunk_error_rate": s.chunk_error_rate,
            "residual_bit_error_rate": s.residual_bit_error_rate,
            "resyncs": s.resyncs,
            "mean_recovery_latency": s.mean_recovery_latency,
            "resync_energy_overhead": s.resync_energy_overhead,
            "cycle_overhead": s.cycle_overhead,
        })
    return {
        "geometry": {
            "block_bits": base.block_bits,
            "segment_bits": base.segment_bits,
            "chunk_bits": base.chunk_bits,
            "num_blocks": base.num_blocks,
        },
        "seed": seed,
        "points": len(rows),
        "failed": failed,
        "rows": rows,
    }


def smoke_check(seed: int = 0) -> list[str]:
    """The CI fault-injection smoke assertions; returns found problems.

    With ECC on, a moderate fault rate must produce **zero silent
    corruption** (every corrupted chunk corrected or detected); with
    ECC off, the very same fault stream must corrupt data — otherwise
    the injector, the recovery protocol, or the ECC layout is broken.
    """
    fault = FaultConfig(drop_rate=2e-3, glitch_rate=1e-3, seed=seed + 3)
    base = FaultCampaignConfig(
        fault=fault, num_blocks=32, block_bits=64, segment_bits=16,
        resync_interval=4, data_seed=seed + 1,
    )
    engine = StagedEngine()
    with_ecc = engine.fault_campaign(base).stats
    without = engine.fault_campaign(replace(base, use_ecc=False)).stats
    problems = []
    if with_ecc.silent_blocks or with_ecc.bit_errors_post_ecc:
        problems.append(
            f"ECC on: expected zero silent corruption, got "
            f"{with_ecc.silent_blocks} silent blocks / "
            f"{with_ecc.bit_errors_post_ecc} residual bits"
        )
    if with_ecc.chunk_errors_pre_ecc == 0:
        problems.append(
            "ECC on: the fault injector produced no chunk errors at all"
        )
    if without.silent_blocks + without.detected_blocks + without.blocks_lost == 0:
        problems.append(
            "ECC off: expected corrupted blocks, everything came through clean"
        )
    return problems
