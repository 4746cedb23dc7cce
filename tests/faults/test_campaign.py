"""Campaign tests: classification, determinism, engine integration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults.campaign import (
    FaultCampaignConfig,
    run_campaign,
    sweep_grid,
)
from repro.faults.processes import FaultConfig
from repro.sim.engine import StagedEngine
from repro.sim.store import ResultStore

QUIET = FaultCampaignConfig(
    num_blocks=16, block_bits=64, segment_bits=16, data_seed=5,
    resync_interval=None,
)
NOISY = replace(
    QUIET,
    fault=FaultConfig(drop_rate=2e-3, glitch_rate=1e-3, seed=3),
    resync_interval=4,
)


class TestFaultFreeCampaign:
    def test_everything_clean_and_zero_overhead(self):
        stats = run_campaign(QUIET).stats
        assert stats.clean_blocks == stats.blocks_sent == 16
        assert stats.blocks_lost == 0
        assert stats.silent_blocks == stats.detected_blocks == 0
        assert stats.chunk_errors_pre_ecc == 0
        assert stats.resyncs == 0
        # The faulty and reference links are the same link here.
        assert stats.total_flips == stats.baseline_flips
        assert stats.total_cycles == stats.baseline_cycles
        assert stats.resync_energy_overhead == 0.0
        assert stats.cycle_overhead == 0.0

    def test_no_ecc_path_matches(self):
        stats = run_campaign(replace(QUIET, use_ecc=False)).stats
        assert stats.clean_blocks == 16
        assert stats.residual_bit_error_rate == 0.0


class TestFaultyCampaign:
    def test_ecc_absorbs_what_the_raw_link_leaks(self):
        """Identical fault stream, ECC on vs off: the protected side
        must show zero silent corruption, the raw side must not."""
        protected = run_campaign(NOISY).stats
        raw = run_campaign(replace(NOISY, use_ecc=False)).stats
        assert protected.chunk_errors_pre_ecc > 0
        assert protected.silent_blocks == 0
        assert protected.bit_errors_post_ecc == 0
        assert protected.corrected_blocks + protected.detected_blocks > 0
        assert raw.silent_blocks + raw.detected_blocks + raw.blocks_lost > 0

    def test_resyncs_cost_energy_and_cycles(self):
        stats = run_campaign(NOISY).stats
        assert stats.resyncs > 0
        assert stats.resync_flips > 0
        assert stats.total_cycles > stats.baseline_cycles
        assert stats.resync_energy_overhead > 0.0

    def test_heavy_faults_stay_detected_not_silent(self):
        """Stuck wires + bursty drops: the watchdog machinery must keep
        classifying losses as detected events."""
        config = replace(
            NOISY,
            fault=FaultConfig(
                drop_rate=0.05, burst=True, stuck_wires=(2,), seed=9
            ),
            use_ecc=False,
        )
        stats = run_campaign(config).stats
        assert stats.blocks_sent == 16
        assert stats.detected_blocks + stats.blocks_lost > 0
        assert stats.watchdog_aborts + stats.resyncs > 0
        assert stats.dropped_toggles > 0

    def test_rates_are_well_formed(self):
        stats = run_campaign(NOISY).stats
        assert 0.0 <= stats.chunk_error_rate <= 1.0
        assert 0.0 <= stats.residual_bit_error_rate <= 1.0
        assert 0.0 <= stats.silent_block_rate <= 1.0
        assert 0.0 <= stats.detected_block_rate <= 1.0


class TestDeterminism:
    def test_rerun_is_identical(self):
        assert run_campaign(NOISY) == run_campaign(NOISY)

    def test_serial_and_parallel_campaigns_agree(self):
        grid = sweep_grid(QUIET, drop_rates=(0.0, 2e-3),
                          resync_intervals=(None, 4))
        serial = StagedEngine(ResultStore()).fault_campaigns(
            grid, max_workers=1
        )
        parallel = StagedEngine(ResultStore()).fault_campaigns(
            grid, max_workers=2
        )
        assert serial == parallel
        assert len(serial) == len(grid) == 8

    def test_data_and_fault_seeds_are_independent(self):
        base = run_campaign(NOISY).stats
        other_faults = run_campaign(
            replace(NOISY, fault=replace(NOISY.fault, seed=99))
        ).stats
        assert base != other_faults


class TestEngineIntegration:
    def test_campaign_memoized_in_store(self):
        engine = StagedEngine(ResultStore())
        first = engine.fault_campaign(NOISY)
        misses = engine.store.misses
        second = engine.fault_campaign(NOISY)
        assert first == second
        assert engine.store.misses == misses
        assert ("fault-campaign", NOISY.key()) in engine.store

    def test_distinct_configs_distinct_keys(self):
        grid = sweep_grid(QUIET, drop_rates=(0.0, 1e-3, 2e-3),
                          resync_intervals=(None, 4, 8))
        keys = {config.key() for config in grid}
        assert len(keys) == len(grid) == 18


class TestValidation:
    def test_non_positive_block_count_rejected(self):
        with pytest.raises(ValueError, match="num_blocks"):
            FaultCampaignConfig(num_blocks=0)

    def test_negative_data_seed_rejected(self):
        with pytest.raises(ValueError, match="data_seed must be >= 0"):
            FaultCampaignConfig(data_seed=-1)
