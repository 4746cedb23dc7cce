"""Unit tests for the Section 3.3 value-skipping policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.skipping import (
    LastValueSkipping,
    NoSkipping,
    ZeroSkipping,
    make_policy,
)


class TestNoSkipping:
    def test_never_skips(self):
        policy = NoSkipping()
        assert policy.skip_values() is None
        assert not policy.enables_skipping

    def test_observe_is_noop(self):
        policy = NoSkipping()
        policy.observe_round(np.array([7]))
        assert policy.skip_values() is None


class TestZeroSkipping:
    def test_skip_value_is_zero_everywhere(self):
        policy = ZeroSkipping()
        skip = policy.skip_values()
        assert np.array_equal(np.broadcast_to(skip, 128), np.zeros(128))

    def test_history_independent(self):
        policy = ZeroSkipping()
        policy.observe_round(np.array([0, 0, 0, 9]))
        assert policy.skip_values() == 0


class TestLastValueSkipping:
    def test_initial_history_is_zero(self):
        policy = LastValueSkipping(4)
        assert policy.skip_values().tolist() == [0, 0, 0, 0]

    def test_tracks_per_wire(self):
        policy = LastValueSkipping(4)
        keep = np.array([False, True, True, False])
        policy.observe_round(np.array([3, 9, 5, 6]), keep)
        assert policy.skip_values().tolist() == [0, 9, 5, 0]
        policy.observe_round(np.array([3, 1, 5, 6]))
        assert policy.skip_values().tolist() == [3, 1, 5, 6]

    def test_skip_values_are_a_snapshot(self):
        policy = LastValueSkipping(2)
        before = policy.skip_values()
        policy.observe_round(np.array([4, 7]))
        assert before.tolist() == [0, 0]

    def test_reset_clears_history(self):
        policy = LastValueSkipping(2)
        policy.observe_round(np.array([7, 3]))
        policy.reset()
        assert policy.skip_values().tolist() == [0, 0]

    def test_clone_fresh_history(self):
        policy = LastValueSkipping(2)
        policy.observe_round(np.array([7, 3]))
        clone = policy.clone()
        assert clone.skip_values().tolist() == [0, 0]
        assert policy.skip_values().tolist() == [7, 3]

    def test_rejects_bad_wire_count(self):
        with pytest.raises(ValueError, match="positive"):
            LastValueSkipping(0)


class TestMakePolicy:
    @pytest.mark.parametrize("name,cls", [
        ("none", NoSkipping), ("zero", ZeroSkipping),
        ("last-value", LastValueSkipping),
    ])
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_policy(name, 8), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown skip policy"):
            make_policy("bogus", 8)
