"""Unit tests for the DESC wire-protocol rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import (
    TransferCost,
    decode_cycle,
    decode_cycles,
    fire_cycle,
    fire_cycles,
    round_duration,
)


class TestFireCycle:
    def test_basic_desc_fires_at_value(self):
        """Basic DESC: value v toggles on cycle v (value 2 = 3 cycles,
        Figure 5)."""
        assert fire_cycle(2, None) == 2
        assert fire_cycle(0, None) == 0

    def test_skipped_chunk_is_silent(self):
        assert fire_cycle(0, 0) is None
        assert fire_cycle(7, 7) is None

    def test_zero_skipping_fires_at_value(self):
        assert fire_cycle(5, 0) == 5
        assert fire_cycle(1, 0) == 1

    def test_below_skip_value_shifts_up(self):
        """The count list excludes the skip value: values below it fire
        one cycle later."""
        assert fire_cycle(2, 7) == 3
        assert fire_cycle(9, 7) == 9

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_unskipped_fires_at_least_cycle_one(self, value, skip):
        cycle = fire_cycle(value, skip)
        if value != skip:
            assert cycle >= 1


class TestDecodeCycle:
    def test_inverse_of_fire_basic(self):
        for v in range(16):
            assert decode_cycle(fire_cycle(v, None), None) == v

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_inverse_of_fire_with_skipping(self, value, skip):
        cycle = fire_cycle(value, skip)
        if cycle is not None:
            assert decode_cycle(cycle, skip) == value

    def test_cycle_zero_invalid_when_skipping(self):
        with pytest.raises(ValueError, match="cycle 0"):
            decode_cycle(0, 3)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_inverse_for_eight_bit_chunks(self, value, skip):
        cycle = fire_cycle(value, skip)
        if cycle is not None:
            assert decode_cycle(cycle, skip) == value


class TestArrayForms:
    """The wire-bank forms apply the scalar rules wire by wire."""

    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=12),
        st.integers(0, 15),
    )
    def test_fire_cycles_match_fire_cycle(self, values, seed):
        skips = np.random.default_rng(seed).integers(0, 16, len(values))
        fire = fire_cycles(np.array(values), skips)
        expected = [fire_cycle(v, int(s)) for v, s in zip(values, skips, strict=True)]
        assert fire.tolist() == [-1 if c is None else c for c in expected]
        assert fire_cycles(np.array(values), None).tolist() == values

    def test_shared_skip_value_broadcasts(self):
        fire = fire_cycles(np.array([0, 3, 0, 1]), np.zeros((), dtype=np.int64))
        assert fire.tolist() == [-1, 3, -1, 1]

    @given(st.integers(1, 17), st.lists(st.integers(0, 15), min_size=1, max_size=12))
    def test_decode_cycles_match_decode_cycle(self, cycle, skips):
        values = decode_cycles(cycle, np.array(skips))
        assert values.tolist() == [decode_cycle(cycle, s) for s in skips]

    def test_decode_without_skipping_is_the_counter(self):
        assert decode_cycles(4, None) == 4

    def test_decode_cycle_zero_invalid_when_skipping(self):
        with pytest.raises(ValueError, match="cycle 0"):
            decode_cycles(0, np.array([3, 0]))


class TestRoundDuration:
    def test_basic_round(self):
        assert round_duration(2, any_skipped=False) == 3  # Figure 5: 3 cycles

    def test_skipping_adds_closing_toggle(self):
        assert round_duration(5, any_skipped=True) == 7

    def test_all_skipped_round(self):
        assert round_duration(None, any_skipped=True) == 2

    def test_no_fires_without_skips_is_invalid(self):
        with pytest.raises(ValueError):
            round_duration(None, any_skipped=False)


class TestTransferCost:
    def test_total_flips(self):
        cost = TransferCost(10, 2, 3, 20)
        assert cost.total_flips == 15

    def test_addition(self):
        total = TransferCost(1, 2, 3, 4) + TransferCost(10, 20, 30, 40)
        assert total == TransferCost(11, 22, 33, 44)
