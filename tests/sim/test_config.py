"""Tests for the simulation configuration (Table 1)."""

from __future__ import annotations

import pytest

from repro.sim.config import (
    DEFAULT_SYSTEM,
    SystemConfig,
    baseline_scheme,
    desc_scheme,
)


class TestSystemConfig:
    def test_table1_defaults(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.l2_size_bytes == 8 * 1024 * 1024
        assert cfg.l2_associativity == 16
        assert cfg.block_bytes == 64
        assert cfg.num_banks == 8
        assert cfg.clock_hz == 3.2e9
        assert cfg.core == "smt"

    def test_with_copies(self):
        modified = DEFAULT_SYSTEM.with_(num_banks=32)
        assert modified.num_banks == 32
        assert DEFAULT_SYSTEM.num_banks == 8

    def test_rejects_bad_core(self):
        with pytest.raises(ValueError, match="core"):
            SystemConfig(core="vliw")

    def test_hashable(self):
        assert hash(DEFAULT_SYSTEM) == hash(SystemConfig())

    def test_controller_overhead_is_bounded(self):
        """A huge overhead leaves the cores no busy time to divide by,
        so the config refuses it rather than the timing model failing."""
        bound = SystemConfig(controller_overhead_cycles=10**6)
        assert bound.controller_overhead_cycles == 10**6
        with pytest.raises(ValueError, match=r"controller_overhead_cycles must be in \[0, 1000000\]"):
            SystemConfig(controller_overhead_cycles=10**6 + 1)


class TestSchemeConfig:
    def test_desc_detection(self):
        assert desc_scheme("zero").is_desc
        assert not baseline_scheme("binary").is_desc

    def test_skip_policy_mapping(self):
        assert desc_scheme("none").skip_policy == "none"
        assert desc_scheme("zero").skip_policy == "zero"
        assert desc_scheme("last-value").skip_policy == "last-value"

    def test_skip_policy_on_baseline_raises(self):
        with pytest.raises(ValueError, match="not a DESC scheme"):
            baseline_scheme("binary").skip_policy

    def test_labels(self):
        assert desc_scheme("zero").label() == "desc+zero-skip"
        ecc = desc_scheme("zero", ecc_segment_bits=128)
        assert ecc.label() == "desc+zero-skip (128-128)"

    def test_bad_skip_name(self):
        with pytest.raises(ValueError, match="skip"):
            desc_scheme("sometimes")

    def test_paper_defaults(self):
        assert desc_scheme("zero").data_wires == 128
        assert baseline_scheme("binary").data_wires == 64
