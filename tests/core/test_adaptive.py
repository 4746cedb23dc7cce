"""Tests for adaptive (frequency-elected) value skipping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveDescCostModel, AdaptiveSkipping
from repro.core.chunking import ChunkLayout
from repro.core.link import DescLink


def observe(policy: AdaptiveSkipping, *rounds: tuple[int, ...]) -> None:
    """Feed whole rounds (one value per wire) to the policy."""
    for values in rounds:
        policy.observe_round(np.array(values))


class TestAdaptivePolicy:
    def test_starts_at_zero(self):
        policy = AdaptiveSkipping(4, 4, window=8)
        assert policy.skip_values().tolist() == [0, 0, 0, 0]

    def test_elects_most_frequent(self):
        policy = AdaptiveSkipping(1, 4, window=4)
        observe(policy, (7,), (7,), (7,), (2,))
        assert policy.skip_values().tolist() == [7]

    def test_tie_resolves_to_smallest(self):
        policy = AdaptiveSkipping(1, 4, window=4)
        observe(policy, (9,), (9,), (3,), (3,))
        assert policy.skip_values().tolist() == [3]

    def test_counts_reset_between_windows(self):
        policy = AdaptiveSkipping(1, 4, window=2)
        observe(policy, (7,), (7,))  # window 1 elects 7
        observe(policy, (5,), (5,))  # window 2 must not be polluted by the 7s
        assert policy.skip_values().tolist() == [5]

    def test_wires_independent(self):
        policy = AdaptiveSkipping(2, 4, window=2)
        observe(policy, (9, 4), (9, 4))
        assert policy.skip_values().tolist() == [9, 4]

    def test_masked_wires_keep_their_window(self):
        """A wire outside ``keep`` (a detected loss) neither counts the
        value nor advances its window; the other wires elect on time."""
        policy = AdaptiveSkipping(2, 4, window=2)
        policy.observe_round(np.array([9, 4]))
        policy.observe_round(np.array([9, 4]), np.array([True, False]))
        assert policy.skip_values().tolist() == [9, 0]
        policy.observe_round(np.array([1, 4]), np.array([False, True]))
        assert policy.skip_values().tolist() == [9, 4]

    def test_reset(self):
        policy = AdaptiveSkipping(1, 4, window=1)
        observe(policy, (9,))
        policy.reset()
        assert policy.skip_values().tolist() == [0]

    def test_clone_is_fresh(self):
        policy = AdaptiveSkipping(1, 4, window=1)
        observe(policy, (9,))
        assert policy.clone().skip_values().tolist() == [0]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveSkipping(4, 4, window=0)


class TestLinkModelAgreement:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), window=st.sampled_from([1, 3, 8]))
    def test_agreement_and_roundtrip(self, seed, window):
        rng = np.random.default_rng(seed)
        layout = ChunkLayout(block_bits=32, chunk_bits=4, num_wires=4)
        link = DescLink(layout, skip_policy=AdaptiveSkipping(4, 4, window))
        model = AdaptiveDescCostModel(layout, window=window)
        blocks = rng.integers(0, 16, size=(6, 8))
        stream = model.stream_cost(blocks)
        for i, block in enumerate(blocks):
            cost = link.send_block(block)
            assert np.array_equal(link.receiver.received_blocks[-1], block)
            assert cost == stream.block(i)

    def test_stream_equals_blockwise(self, rng):
        layout = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=128)
        blocks = rng.integers(0, 16, size=(20, 128))
        whole = AdaptiveDescCostModel(layout, window=8).stream_cost(blocks)
        stepped = AdaptiveDescCostModel(layout, window=8)
        for i in range(20):
            assert stepped.block_cost(blocks[i]) == whole.block(i)


class TestPaperClaim:
    def test_adaptive_skips_a_dominant_value(self):
        """When one non-zero value dominates, adaptation captures it."""
        layout = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=128)
        model = AdaptiveDescCostModel(layout, window=4)
        blocks = np.full((40, 128), 11, dtype=np.int64)
        stream = model.stream_cost(blocks)
        # After the first election, everything is skipped.
        assert stream.data_flips[-1] == 0

    def test_near_uniform_values_defeat_adaptation(self):
        """The paper's reason for dismissing adaptation: with a uniform
        non-zero tail, the elected value wins only ~1/15 of chunks."""
        from repro.core.analysis import DescCostModel

        rng = np.random.default_rng(0)
        layout = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=128)
        blocks = rng.integers(0, 16, size=(100, 128))
        blocks[rng.random(blocks.shape) < 0.31] = 0  # Figure 12 statistics
        adaptive = AdaptiveDescCostModel(layout, window=16).stream_cost(blocks)
        zero = DescCostModel(layout, "zero").stream_cost(blocks)
        gain = 1 - adaptive.total().data_flips / zero.total().data_flips
        assert abs(gain) < 0.08  # "not appreciable" (Section 3.3)
