"""Tests for the seeded per-wire fault processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.processes import (
    BernoulliProcess,
    FaultConfig,
    GilbertElliottProcess,
    make_process,
)


class TestFaultConfig:
    def test_default_injects_nothing(self):
        config = FaultConfig()
        assert not config.any_faults

    @pytest.mark.parametrize("field", [
        "drop_rate", "glitch_rate", "strobe_glitch_rate", "desync_rate",
        "burst_on_rate", "burst_off_rate",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultConfig(**{field: value})

    def test_bad_stuck_level_rejected(self):
        with pytest.raises(ValueError, match="stuck_level"):
            FaultConfig(stuck_wires=(0,), stuck_level=2)

    def test_non_positive_burst_gain_rejected(self):
        with pytest.raises(ValueError, match="burst_gain"):
            FaultConfig(burst_gain=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FaultConfig(seed=-1)

    def test_stuck_wire_list_coerced_to_tuple(self):
        config = FaultConfig(stuck_wires=[3, 1])
        assert config.stuck_wires == (3, 1)
        assert hash(config)  # stays hashable for store keys

    @pytest.mark.parametrize("changes", [
        {"drop_rate": 1e-3},
        {"glitch_rate": 1e-3},
        {"strobe_glitch_rate": 1e-3},
        {"desync_rate": 1e-3},
        {"stuck_wires": (0,)},
    ])
    def test_any_fault_class_sets_any_faults(self, changes):
        assert FaultConfig(**changes).any_faults


class TestBernoulliProcess:
    def test_zero_rate_never_fires(self, rng):
        process = BernoulliProcess(0.0, 16, rng)
        for _ in range(50):
            assert not process.sample().any()

    def test_unit_rate_always_fires(self, rng):
        process = BernoulliProcess(1.0, 16, rng)
        assert process.sample().all()

    def test_sample_shape_and_dtype(self, rng):
        events = BernoulliProcess(0.5, 7, rng).sample()
        assert events.shape == (7,)
        assert events.dtype == bool

    def test_empirical_rate_near_nominal(self):
        process = BernoulliProcess(0.1, 64, np.random.default_rng(0))
        total = sum(int(process.sample().sum()) for _ in range(500))
        assert total / (500 * 64) == pytest.approx(0.1, rel=0.15)

    def test_seeded_determinism(self):
        a = BernoulliProcess(0.3, 8, np.random.default_rng(7))
        b = BernoulliProcess(0.3, 8, np.random.default_rng(7))
        for _ in range(100):
            assert np.array_equal(a.sample(), b.sample())

    def test_invalid_geometry_rejected(self, rng):
        with pytest.raises(ValueError, match="num_wires"):
            BernoulliProcess(0.1, 0, rng)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BernoulliProcess(1.5, 4, rng)


class TestGilbertElliottProcess:
    def test_starts_all_good(self, rng):
        process = GilbertElliottProcess(0.01, 8, rng)
        assert not process.bad_states.any()

    def test_zero_base_rate_never_fires(self, rng):
        process = GilbertElliottProcess(0.0, 8, rng)
        for _ in range(20):
            assert not process.sample().any()

    def test_forced_bad_state_raises_event_rate(self):
        """on_rate=1, off_rate=0: every wire is bad from cycle one on,
        so events arrive at the gained rate."""
        process = GilbertElliottProcess(
            0.02, 64, np.random.default_rng(1),
            on_rate=1.0, off_rate=0.0, gain=20.0,
        )
        process.sample()
        assert process.bad_states.all()
        total = sum(int(process.sample().sum()) for _ in range(500))
        assert total / (500 * 64) == pytest.approx(0.4, rel=0.15)

    def test_bad_rate_clipped_to_one(self, rng):
        process = GilbertElliottProcess(0.5, 4, rng, gain=100.0)
        assert process.bad_rate == 1.0

    def test_bursts_raise_variance_over_bernoulli(self):
        """Same mean-event machinery, but the bursty chain clusters its
        events: per-cycle counts have visibly higher variance."""
        ge = GilbertElliottProcess(
            0.01, 256, np.random.default_rng(3),
            on_rate=0.02, off_rate=0.1, gain=50.0,
        )
        bern = BernoulliProcess(0.01, 256, np.random.default_rng(3))
        ge_counts = [int(ge.sample().sum()) for _ in range(800)]
        b_counts = [int(bern.sample().sum()) for _ in range(800)]
        assert np.var(ge_counts) > 2 * np.var(b_counts)

    def test_seeded_determinism(self):
        a = GilbertElliottProcess(0.05, 8, np.random.default_rng(9))
        b = GilbertElliottProcess(0.05, 8, np.random.default_rng(9))
        for _ in range(200):
            assert np.array_equal(a.sample(), b.sample())
        assert np.array_equal(a.bad_states, b.bad_states)


class TestMakeProcess:
    def test_default_is_bernoulli(self, rng):
        process = make_process(0.1, 4, FaultConfig(), rng)
        assert isinstance(process, BernoulliProcess)

    def test_burst_selects_gilbert_elliott(self, rng):
        config = FaultConfig(burst=True, burst_on_rate=0.5,
                             burst_off_rate=0.5, burst_gain=2.0)
        process = make_process(0.1, 4, config, rng)
        assert isinstance(process, GilbertElliottProcess)
        assert process.on_rate == 0.5
        assert process.bad_rate == pytest.approx(0.2)
