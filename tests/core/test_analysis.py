"""Unit tests for the closed-form DESC cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout


class TestStreamCost:
    def test_basic_flips_are_data_independent(self, default_layout, rng):
        """Basic DESC's defining property: one flip per chunk no matter
        the data (Section 3)."""
        model = DescCostModel(default_layout, skip_policy="none")
        blocks = rng.integers(0, 16, size=(50, 128))
        stream = model.stream_cost(blocks)
        assert (stream.data_flips == 128).all()
        assert (stream.overhead_flips == 1).all()

    def test_zero_skip_data_flips_count_nonzero(self, default_layout, rng):
        model = DescCostModel(default_layout, skip_policy="zero")
        blocks = rng.integers(0, 16, size=(20, 128))
        stream = model.stream_cost(blocks)
        expected = (blocks != 0).sum(axis=1)
        assert np.array_equal(stream.data_flips, expected)

    def test_last_value_skips_repeats(self, default_layout):
        model = DescCostModel(default_layout, skip_policy="last-value")
        block = np.arange(128) % 16
        stream = model.stream_cost(np.stack([block, block, block]))
        # First block: nothing matches the all-zero history except the
        # zero-valued chunks; later blocks match entirely.
        assert stream.data_flips[0] == int((block != 0).sum())
        assert stream.data_flips[1] == 0
        assert stream.data_flips[2] == 0

    def test_stateful_equals_stream(self, default_layout, rng):
        """Feeding block-by-block must equal one stream call."""
        blocks = rng.integers(0, 16, size=(10, 128))
        whole = DescCostModel(default_layout, "last-value").stream_cost(blocks)
        stepped = DescCostModel(default_layout, "last-value")
        for i in range(10):
            cost = stepped.block_cost(blocks[i])
            assert cost.data_flips == whole.data_flips[i]
            assert cost.sync_flips == whole.sync_flips[i]
            assert cost.cycles == whole.cycles[i]

    def test_reset_clears_history(self, default_layout, rng):
        blocks = rng.integers(0, 16, size=(5, 128))
        model = DescCostModel(default_layout, "last-value")
        first = model.stream_cost(blocks).data_flips.copy()
        model.reset()
        second = model.stream_cost(blocks).data_flips.copy()
        assert np.array_equal(first, second)

    def test_empty_stream(self, default_layout):
        model = DescCostModel(default_layout)
        stream = model.stream_cost(np.zeros((0, 128), dtype=np.int64))
        assert stream.num_blocks == 0
        assert stream.total().total_flips == 0

    def test_wrong_shape_rejected(self, default_layout):
        model = DescCostModel(default_layout)
        with pytest.raises(ValueError, match="shape"):
            model.stream_cost(np.zeros((5, 64), dtype=np.int64))

    def test_unknown_policy_rejected(self, default_layout):
        with pytest.raises(ValueError, match="unknown skip policy"):
            DescCostModel(default_layout, skip_policy="sometimes")


class TestLatencyModel:
    def test_latency_at_most_window(self, default_layout, rng):
        """The average-value delivery latency never exceeds the window."""
        model = DescCostModel(default_layout, skip_policy="zero")
        blocks = rng.integers(0, 16, size=(50, 128))
        stream = model.stream_cost(blocks)
        assert (stream.delivery_latency <= stream.cycles).all()

    def test_null_block_minimal_latency(self, default_layout):
        model = DescCostModel(default_layout, skip_policy="zero")
        stream = model.stream_cost(np.zeros((1, 128), dtype=np.int64))
        assert stream.cycles[0] == 2
        assert stream.delivery_latency[0] == 2

    def test_multi_round_latency_accumulates(self, rng):
        narrow = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=64)
        wide = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=128)
        blocks = rng.integers(1, 16, size=(30, 128))
        lat_narrow = DescCostModel(narrow, "zero").stream_cost(blocks)
        lat_wide = DescCostModel(wide, "zero").stream_cost(blocks)
        assert lat_narrow.delivery_latency.mean() > lat_wide.delivery_latency.mean()


class TestAggregates:
    def test_total_matches_sum(self, default_layout, rng):
        model = DescCostModel(default_layout, "zero")
        blocks = rng.integers(0, 16, size=(7, 128))
        stream = model.stream_cost(blocks)
        total = stream.total()
        assert total.data_flips == stream.data_flips.sum()
        assert total.cycles == stream.cycles.sum()

    def test_block_indexing(self, default_layout, rng):
        model = DescCostModel(default_layout, "zero")
        stream = model.stream_cost(rng.integers(0, 16, size=(4, 128)))
        cost = stream.block(2)
        assert cost.data_flips == stream.data_flips[2]


#: Every (chunk_bits, wires) geometry of a 512-bit block whose packed
#: rounds fill at least a byte.
PACKED_GEOMETRIES = [
    (chunk_bits, wires)
    for chunk_bits in (1, 2)
    for wires in (1 << k for k in range(10))
    if (512 // chunk_bits) % wires == 0 and wires * chunk_bits >= 8
]


def _packed_blocks(seed: int, num_blocks: int, round_bits: int):
    """Random blocks of mixed density, with whole rounds forced to all
    zeros or all ones, as words only."""
    from repro.kernels.pipeline import PackedBits

    rng = np.random.default_rng(seed)
    density = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0], size=(num_blocks, 1))
    bits = (rng.random((num_blocks, 512)) < density).astype(np.uint8)
    rounds = bits.reshape(num_blocks, -1, round_bits)
    forced = rng.integers(0, 4, size=rounds.shape[:2])
    rounds[forced == 0] = 0
    rounds[forced == 1] = 1
    words = PackedBits.from_bits(bits).words
    return PackedBits(words, num_blocks, 512)


class TestPackedTallies:
    """1- and 2-bit DESC from popcounts over packed rounds, against the
    stream kernels on the chunk values ``PackedBits.chunks`` cuts."""

    def test_geometries_cover_every_byte_round(self):
        assert (1, 8) in PACKED_GEOMETRIES and (2, 4) in PACKED_GEOMETRIES
        assert (1, 4) not in PACKED_GEOMETRIES  # a 4-bit round
        assert len(PACKED_GEOMETRIES) == 14

    @pytest.mark.parametrize("policy", ["none", "zero", "last-value"])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        geometry=st.sampled_from(PACKED_GEOMETRIES),
        sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    )
    def test_match_the_chunk_kernels(self, policy, seed, geometry, sizes):
        from repro.core.analysis import _packed_arrays, _round_unit_bits
        from repro.kernels import pipeline

        chunk_bits, wires = geometry
        layout = ChunkLayout(block_bits=512, chunk_bits=chunk_bits, num_wires=wires)
        packed_model = DescCostModel(layout, skip_policy=policy)
        chunk_model = DescCostModel(layout, skip_policy=policy)
        # Two calls on each model: wire history and strobe parity carry.
        for call, num_blocks in enumerate(sizes):
            blocks = _packed_blocks(seed + call, num_blocks, wires * chunk_bits)
            values = blocks.chunks(chunk_bits).reshape(-1, wires)
            want = pipeline.desc_stream_arrays(
                values, num_blocks, layout.num_rounds, wires, policy,
                chunk_model._last,
            )
            got, last = _packed_arrays(
                blocks, layout, _round_unit_bits(layout), policy,
                packed_model._last,
            )
            for got_array, want_array in zip(got, want, strict=True):
                np.testing.assert_array_equal(got_array, want_array)
            np.testing.assert_array_equal(last, values[-1])

            packed = packed_model.stream_cost(blocks)
            chunked = chunk_model.stream_cost(blocks.chunks(chunk_bits))
            for field in ("data_flips", "overhead_flips", "sync_flips",
                          "cycles", "latency_cycles"):
                np.testing.assert_array_equal(
                    getattr(packed, field), getattr(chunked, field)
                )
            np.testing.assert_array_equal(packed_model._last, chunk_model._last)
            assert packed_model._busy_cycles == chunk_model._busy_cycles
            assert blocks._bits is None  # nothing was unpacked

    def test_rounds_under_a_byte_take_the_chunk_path(self):
        from repro.core.analysis import _round_unit_bits

        assert _round_unit_bits(ChunkLayout(512, 1, 4)) is None
        assert _round_unit_bits(ChunkLayout(512, 4, 128)) is None
        assert _round_unit_bits(ChunkLayout(512, 2, 16)) == 32
        blocks = _packed_blocks(3, 4, 4)
        layout = ChunkLayout(block_bits=512, chunk_bits=1, num_wires=4)
        packed = DescCostModel(layout, "zero").stream_cost(blocks)
        chunked = DescCostModel(layout, "zero").stream_cost(blocks.chunks(1))
        np.testing.assert_array_equal(packed.cycles, chunked.cycles)

    def test_packed_blocks_of_another_size_rejected(self, default_layout):
        from repro.kernels.pipeline import PackedBits

        packed = PackedBits.from_bits(np.zeros((2, 256), dtype=np.uint8))
        with pytest.raises(ValueError, match="512 bits"):
            DescCostModel(default_layout).stream_cost(packed)
