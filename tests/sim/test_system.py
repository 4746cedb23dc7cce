"""Integration tests of the analytic system simulator.

These encode the paper's headline *shape* claims as assertions, on a
reduced block sample for speed (ratios stabilize quickly).
"""

from __future__ import annotations

import pytest

from repro.sim.config import SystemConfig, baseline_scheme, desc_scheme
from repro.sim.system import simulate, transfer_stats
from repro.workloads.profiles import profile

SYSTEM = SystemConfig(sample_blocks=2000)
APP = "Ocean"


@pytest.fixture(scope="module")
def binary():
    return simulate(APP, baseline_scheme("binary"), SYSTEM)


@pytest.fixture(scope="module")
def desc_zs():
    return simulate(APP, desc_scheme("zero"), SYSTEM)


class TestHeadlineShapes:
    def test_desc_saves_l2_energy(self, binary, desc_zs):
        """The headline: zero-skipped DESC substantially cuts L2 energy."""
        assert desc_zs.l2_energy_j < 0.75 * binary.l2_energy_j

    def test_desc_slowdown_small(self, binary, desc_zs):
        """Execution-time penalty stays within a few percent (Fig. 20)."""
        assert 1.0 <= desc_zs.cycles / binary.cycles < 1.05

    def test_desc_saves_processor_energy(self, binary, desc_zs):
        assert desc_zs.processor_energy_j < binary.processor_energy_j

    def test_desc_hit_latency_longer(self, binary, desc_zs):
        assert desc_zs.hit_latency > binary.hit_latency

    def test_miss_latency_scheme_independent(self, binary, desc_zs):
        """DESC is not applied to address wires: miss penalty unchanged
        (Section 5.3)."""
        assert desc_zs.miss_latency == pytest.approx(
            binary.miss_latency, rel=0.02
        )

    def test_skip_variants_ordering(self):
        """Zero-skipped DESC beats basic DESC; last-value pays the
        write-broadcast tax (Section 5.2)."""
        basic = simulate(APP, desc_scheme("none"), SYSTEM)
        zero = simulate(APP, desc_scheme("zero"), SYSTEM)
        last = simulate(APP, desc_scheme("last-value"), SYSTEM)
        assert zero.l2_energy_j < basic.l2_energy_j
        assert zero.l2_energy_j < last.l2_energy_j

    def test_htree_dominates_l2_energy(self, binary):
        assert binary.l2.htree_dynamic_j > 0.6 * binary.l2.total_j


class TestTransferStats:
    def test_basic_desc_flip_count(self):
        """Basic DESC: 128 data flips + 1 reset + window/2 sync."""
        stats = transfer_stats(desc_scheme("none"), profile(APP), 2000, 1)
        assert stats.data_flips == pytest.approx(128, abs=0.01)
        assert stats.overhead_flips == pytest.approx(1.0, abs=0.01)

    def test_zero_skip_reduces_data_flips(self):
        basic = transfer_stats(desc_scheme("none"), profile(APP), 2000, 1)
        zero = transfer_stats(desc_scheme("zero"), profile(APP), 2000, 1)
        assert zero.data_flips < 0.85 * basic.data_flips

    def test_binary_beats(self):
        stats = transfer_stats(baseline_scheme("binary"), profile(APP), 2000, 1)
        assert stats.transfer_cycles == 8.0
        assert stats.latency_cycles == 8.0

    def test_desc_latency_below_window(self):
        stats = transfer_stats(desc_scheme("zero"), profile(APP), 2000, 1)
        assert stats.latency_cycles < stats.transfer_cycles

    def test_caching_returns_identical(self):
        a = transfer_stats(desc_scheme("zero"), profile(APP), 2000, 1)
        b = transfer_stats(desc_scheme("zero"), profile(APP), 2000, 1)
        assert a is b  # lru_cache hit


class TestEccConfigurations:
    def test_desc_ecc_adds_parity_wires(self):
        plain = transfer_stats(desc_scheme("zero"), profile(APP), 1000, 1)
        ecc = transfer_stats(
            desc_scheme("zero", ecc_segment_bits=128), profile(APP), 1000, 1
        )
        assert ecc.data_wires == plain.data_wires + 9  # (137,128)

    def test_binary_ecc_widens_bus(self):
        ecc = transfer_stats(
            baseline_scheme("binary", data_wires=64, ecc_segment_bits=64),
            profile(APP), 1000, 1,
        )
        assert ecc.data_wires == 72  # (72, 64) per beat

    def test_mismatched_binary_ecc_rejected(self):
        with pytest.raises(ValueError, match="W == S"):
            transfer_stats(
                baseline_scheme("binary", data_wires=64, ecc_segment_bits=128),
                profile(APP), 1000, 1,
            )


class TestArchitectureSensitivity:
    def test_single_bank_much_slower(self):
        eight = simulate(APP, desc_scheme("zero"), SYSTEM.with_(num_banks=8))
        one = simulate(APP, desc_scheme("zero"), SYSTEM.with_(num_banks=1))
        assert one.cycles > 1.2 * eight.cycles
        assert one.bank_wait > eight.bank_wait

    def test_bigger_cache_more_energy(self):
        small = simulate(APP, baseline_scheme("binary"),
                         SYSTEM.with_(l2_size_bytes=1024 * 1024))
        large = simulate(APP, baseline_scheme("binary"),
                         SYSTEM.with_(l2_size_bytes=64 * 1024 * 1024))
        assert large.l2_energy_j > small.l2_energy_j

    def test_hp_devices_waste_energy(self):
        lstp = simulate(APP, baseline_scheme("binary"), SYSTEM)
        hp = simulate(APP, baseline_scheme("binary"),
                      SYSTEM.with_(cell_device="HP", periph_device="HP"))
        assert hp.l2_energy_j > 20 * lstp.l2_energy_j

    def test_ooo_core_more_latency_sensitive(self):
        spec = "mcf"
        smt_cfg = SYSTEM
        ooo_cfg = SYSTEM.with_(core="ooo")
        smt_ratio = (
            simulate(spec, desc_scheme("zero"), smt_cfg).cycles
            / simulate(spec, baseline_scheme("binary"), smt_cfg).cycles
        )
        ooo_ratio = (
            simulate(spec, desc_scheme("zero"), ooo_cfg).cycles
            / simulate(spec, baseline_scheme("binary"), ooo_cfg).cycles
        )
        assert ooo_ratio > smt_ratio

    def test_nuca_configuration_runs(self):
        result = simulate(APP, desc_scheme("zero"),
                          SYSTEM.with_(nuca=True, num_banks=128))
        assert result.cycles > 0
