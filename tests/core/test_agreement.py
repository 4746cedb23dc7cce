"""Property tests: the closed-form model matches the cycle-accurate link.

These are the central correctness guarantees of the fidelity stack
(DESIGN.md §4): for random block streams, under every skip policy and
several geometries, (1) the receiver reconstructs every block exactly,
and (2) the analytical model predicts the link's flips and cycles
bit-for-bit, including sync-strobe parity and last-value history.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.core.link import DescLink

POLICIES = ("none", "zero", "last-value")


def _blocks(draw, layout: ChunkLayout, max_blocks: int = 6) -> np.ndarray:
    n = draw(st.integers(1, max_blocks))
    values = draw(
        st.lists(
            st.integers(0, layout.max_chunk_value),
            min_size=n * layout.num_chunks,
            max_size=n * layout.num_chunks,
        )
    )
    return np.array(values, dtype=np.int64).reshape(n, layout.num_chunks)


@st.composite
def small_streams(draw):
    layout = ChunkLayout(block_bits=32, chunk_bits=4, num_wires=draw(
        st.sampled_from([1, 2, 4, 8])
    ))
    return layout, _blocks(draw, layout)


@st.composite
def odd_chunk_streams(draw):
    chunk_bits = draw(st.sampled_from([1, 2, 3, 8]))
    wires = draw(st.sampled_from([2, 4]))
    layout = ChunkLayout(
        block_bits=chunk_bits * wires * 2, chunk_bits=chunk_bits, num_wires=wires
    )
    return layout, _blocks(draw, layout, max_blocks=4)


class TestLinkModelAgreement:
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=40, deadline=None)
    @given(data=small_streams())
    def test_small_layouts(self, data, policy):
        layout, blocks = data
        self._check(layout, blocks, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=25, deadline=None)
    @given(data=odd_chunk_streams())
    def test_odd_chunk_sizes(self, data, policy):
        layout, blocks = data
        self._check(layout, blocks, policy)

    @staticmethod
    def _check(layout: ChunkLayout, blocks: np.ndarray, policy: str) -> None:
        link = DescLink(layout, skip_policy=policy, wire_delay=2)
        model = DescCostModel(layout, skip_policy=policy)
        stream = model.stream_cost(blocks)
        for i, block in enumerate(blocks):
            cost = link.send_block(block)
            received = link.receiver.received_blocks[-1]
            assert np.array_equal(received, block), "round-trip failure"
            predicted = stream.block(i)
            assert cost.data_flips == predicted.data_flips
            assert cost.overhead_flips == predicted.overhead_flips
            assert cost.sync_flips == predicted.sync_flips
            assert cost.cycles == predicted.cycles


class TestPaperGeometryAgreement:
    """Heavier deterministic sweep on the paper's actual geometry."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("wires", [32, 64, 128])
    def test_default_blocks(self, policy, wires, rng):
        layout = ChunkLayout(block_bits=512, chunk_bits=4, num_wires=wires)
        blocks = rng.integers(0, 16, size=(8, 128))
        blocks[rng.random(blocks.shape) < 0.3] = 0  # exercise skipping
        TestLinkModelAgreement._check(layout, blocks, policy)


@st.composite
def packed_streams(draw):
    """Blocks as packed words, for layouts whose rounds fill bytes."""
    from repro.kernels.pipeline import PackedBits

    chunk_bits = draw(st.sampled_from([1, 2]))
    wires = draw(st.sampled_from([w for w in (4, 8, 16, 32) if w * chunk_bits >= 8]))
    layout = ChunkLayout(block_bits=64, chunk_bits=chunk_bits, num_wires=wires)
    n = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = (np.random.default_rng(seed).random((n, 64)) < density).astype(np.uint8)
    packed = PackedBits.from_bits(bits)
    return layout, PackedBits(packed.words, n, 64)


class TestLinkPackedAgreement:
    """The link against the model's popcount tallies at 1- and 2-bit
    chunks, where the model reads the packed words."""

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=25, deadline=None)
    @given(data=packed_streams())
    def test_packed_layouts(self, data, policy):
        from repro.core.analysis import _round_unit_bits

        layout, packed = data
        assert _round_unit_bits(layout)  # whole-byte rounds: popcounts
        link = DescLink(layout, skip_policy=policy, wire_delay=2)
        stream = DescCostModel(layout, skip_policy=policy).stream_cost(packed)
        for i, block in enumerate(packed.chunks(layout.chunk_bits)):
            cost = link.send_block(block)
            assert np.array_equal(link.receiver.received_blocks[-1], block)
            predicted = stream.block(i)
            assert cost.data_flips == predicted.data_flips
            assert cost.overhead_flips == predicted.overhead_flips
            assert cost.sync_flips == predicted.sync_flips
            assert cost.cycles == predicted.cycles
