"""Tests for DESC's chunk-interleaved ECC layout (Figure 9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.hamming import DecodeStatus, HammingSecded
from repro.ecc.injection import inject_chunk_errors
from repro.ecc.layout import DescEccLayout, secded_extend_stream
from repro.kernels.pipeline import PackedBits

#: Every (segment_bits, chunk_bits) pair that interleaves a 512-bit
#: block evenly into chunks with int64 values.
EVEN_PAIRS = [
    (segment_bits, chunk_bits)
    for segment_bits in (1 << k for k in range(10))
    for chunk_bits in (1 << j for j in range(6))
    if (512 // segment_bits) % chunk_bits == 0
]


class TestLayoutGeometry:
    def test_paper_default_nine_parity_chunks(self):
        """Section 3.2.3: the (137, 128) scheme adds nine wires."""
        layout = DescEccLayout(512, 128, 4)
        assert layout.num_data_chunks == 128
        assert layout.num_parity_chunks == 9

    def test_72_64_configuration(self):
        layout = DescEccLayout(512, 64, 4)
        assert layout.num_parity_chunks == 16  # 8 segments x 8 bits / 4

    def test_rejects_uneven_interleave(self):
        with pytest.raises(ValueError, match="interleave"):
            DescEccLayout(512, 256, 4)  # 2 segments cannot fill 4 lanes

    def test_rejects_chunks_wider_than_int64(self):
        with pytest.raises(ValueError, match="chunk_bits"):
            DescEccLayout(512, 1, 64)  # 512 segments would fill 64 lanes


class TestInterleaveGuarantee:
    @pytest.mark.parametrize("segment_bits", [64, 128])
    def test_chunk_touches_each_segment_once(self, segment_bits):
        """The Figure 9 property: every chunk carries at most one bit of
        each segment, so a chunk error costs each segment <= 1 bit."""
        layout = DescEccLayout(512, segment_bits, 4)
        # Encode blocks that isolate one segment at a time.
        for seg in range(layout.num_segments):
            bits = np.zeros(512, dtype=np.uint8)
            bits[seg * segment_bits:(seg + 1) * segment_bits] = 1
            chunks = layout.encode_block(bits)[: layout.num_data_chunks]
            lanes = (chunks[:, None] >> np.arange(4)) & 1
            # Each data chunk holds at most one bit of this segment.
            assert lanes.sum(axis=1).max() <= 1


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), segment_bits=st.sampled_from([64, 128]))
    def test_clean(self, seed, segment_bits):
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, segment_bits, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        result = layout.decode_block(layout.encode_block(data))
        assert result.ok
        assert np.array_equal(result.data_bits, data)

    def test_encode_stream_matches_per_block(self, rng):
        layout = DescEccLayout(512, 128, 4)
        blocks = rng.integers(0, 2, size=(10, 512)).astype(np.uint8)
        stream = layout.encode_stream(blocks)
        for i in range(10):
            assert np.array_equal(stream[i], layout.encode_block(blocks[i]))


def _reference_stream(layout: DescEccLayout, blocks: np.ndarray) -> np.ndarray:
    """The module docstring's mapping, bit by bit, with ``encode``'s checks.

    Data bit ``p`` of segment ``s`` rides in lane ``s % chunk_bits`` of
    chunk ``p * (num_segments // chunk_bits) + s // chunk_bits``; the
    check bits (Hamming parities at positions ``2**i``, then the overall
    parity) fill the parity chunks by the same rule.
    """
    code = HammingSecded(layout.segment_bits)
    columns = [(1 << i) - 1 for i in range(code.hamming_parity_bits)] + [-1]
    groups = layout.num_segments // layout.chunk_bits

    def interleave(per_segment: np.ndarray) -> list[int]:
        chunks = [0] * (per_segment.shape[1] * groups)
        for s, row in enumerate(per_segment):
            for p in np.flatnonzero(row):
                chunks[p * groups + s // layout.chunk_bits] |= 1 << (
                    s % layout.chunk_bits
                )
        return chunks

    rows = []
    for block in blocks:
        segments = block.reshape(layout.num_segments, layout.segment_bits)
        check = code.encode(segments)[:, columns]
        rows.append(interleave(segments) + interleave(check))
    return np.asarray(rows, dtype=np.int64)


def _mixed_blocks(seed: int) -> np.ndarray:
    """Random, all-ones, all-zero and sparse 512-bit blocks."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.integers(0, 2, size=(2, 512), dtype=np.uint8),
        np.ones((1, 512), dtype=np.uint8),
        np.zeros((1, 512), dtype=np.uint8),
        (rng.random((1, 512)) < 0.05).astype(np.uint8),
    ])


class TestStreamSpec:
    """``encode_stream`` against a reference that shares none of its code."""

    def test_pairs_cover_the_paper_layouts(self):
        assert (128, 4) in EVEN_PAIRS and (64, 4) in EVEN_PAIRS
        assert len(EVEN_PAIRS) == 45

    @pytest.mark.parametrize(
        "segment_bits,chunk_bits", EVEN_PAIRS,
        ids=[f"S{s}-c{c}" for s, c in EVEN_PAIRS],
    )
    def test_matches_reference(self, segment_bits, chunk_bits):
        layout = DescEccLayout(512, segment_bits, chunk_bits)
        blocks = _mixed_blocks(segment_bits * 64 + chunk_bits)
        stream = layout.encode_stream(blocks)
        assert stream.shape == (len(blocks), layout.num_chunks)
        np.testing.assert_array_equal(stream, _reference_stream(layout, blocks))


class TestPackedInput:
    """A bit matrix and its ``PackedBits`` give identical output."""

    @staticmethod
    def _forms(bits: np.ndarray) -> list:
        eager = PackedBits.from_bits(bits)
        # Words only, as the workload stage produces them.
        lazy = PackedBits(eager.words, bits.shape[0], bits.shape[1])
        return [bits, bits.tolist(), eager, lazy]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.sampled_from([(128, 4), (64, 4), (64, 8), (32, 2), (8, 1)]),
    )
    def test_encode_stream(self, seed, pair):
        layout = DescEccLayout(512, *pair)
        bits = _mixed_blocks(seed)
        outputs = [layout.encode_stream(form) for form in self._forms(bits)]
        for output in outputs[1:]:
            np.testing.assert_array_equal(output, outputs[0])

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        segment_bits=st.sampled_from([8, 16, 32, 64, 128, 256]),
    )
    def test_secded_extend_stream(self, seed, segment_bits):
        bits = _mixed_blocks(seed)
        outputs = [
            secded_extend_stream(form, segment_bits)
            for form in self._forms(bits)
        ]
        for output in outputs[1:]:
            np.testing.assert_array_equal(output, outputs[0])

    def test_rejects_packed_blocks_of_the_wrong_size(self):
        layout = DescEccLayout(512, 128, 4)
        packed = PackedBits.from_bits(np.zeros((2, 256), dtype=np.uint8))
        with pytest.raises(ValueError, match="shape"):
            layout.encode_stream(packed)


class TestErrorCorrection:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), segment_bits=st.sampled_from([64, 128]))
    def test_any_single_chunk_error_corrected(self, seed, segment_bits):
        """A whole corrupted chunk (any wrong value, data or parity) is
        always fully corrected — the paper's SECDED claim."""
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, segment_bits, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        chunks = layout.encode_block(data)
        corrupted, _ = inject_chunk_errors(chunks, 1, rng)
        result = layout.decode_block(corrupted)
        assert result.ok
        assert np.array_equal(result.data_bits, data)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_double_chunk_errors_never_silent(self, seed):
        """Two corrupted chunks: every segment either still decodes
        correctly or flags DETECTED — never silent corruption."""
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, 128, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        chunks = layout.encode_block(data)
        corrupted, _ = inject_chunk_errors(chunks, 2, rng)
        result = layout.decode_block(corrupted)
        recovered = result.data_bits.reshape(layout.num_segments, -1)
        original = data.reshape(layout.num_segments, -1)
        for idx, status in enumerate(result.status):
            if status is not DecodeStatus.DETECTED:
                assert np.array_equal(recovered[idx], original[idx])


class TestDecodeMatchesPerWordSpec:
    """``decode_block`` equals the per-word ``HammingSecded.decode`` on
    codewords rebuilt from the wires by the Figure 9 mapping."""

    @staticmethod
    def _codewords(layout: DescEccLayout, chunks: np.ndarray) -> np.ndarray:
        code = layout.code
        groups = layout.num_segments // layout.chunk_bits
        length = code.data_bits + code.hamming_parity_bits
        data_positions = [p for p in range(1, length + 1) if p & (p - 1)]
        check_columns = [(1 << i) - 1 for i in range(code.hamming_parity_bits)] + [-1]
        codewords = np.zeros((layout.num_segments, code.codeword_bits), dtype=np.uint8)
        for s in range(layout.num_segments):
            lane, group = s % layout.chunk_bits, s // layout.chunk_bits
            for p, position in enumerate(data_positions):
                codewords[s, position - 1] = (chunks[p * groups + group] >> lane) & 1
            for q, column in enumerate(check_columns):
                chunk = layout.num_data_chunks + q * groups + group
                codewords[s, column] = (chunks[chunk] >> lane) & 1
        return codewords

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        segment_bits=st.sampled_from([16, 64, 128]),
        flips=st.integers(0, 3),
    )
    def test_flipped_wire_bits(self, seed, segment_bits, flips):
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, segment_bits, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        chunks = layout.encode_block(data)
        for bit in rng.choice(layout.codeword_bits_total, size=flips, replace=False):
            chunks[bit // 4] ^= 1 << (bit % 4)
        want = layout.code.decode(self._codewords(layout, chunks))
        got = layout.decode_block(chunks)
        assert got.status == tuple(want.status)
        np.testing.assert_array_equal(got.data_bits, want.data.reshape(-1))


class TestBinaryExtension:
    def test_widths(self):
        bits = np.zeros((2, 512), dtype=np.uint8)
        ext64 = secded_extend_stream(bits, 64)
        assert ext64.shape == (2, 8 * 72)
        ext128 = secded_extend_stream(bits, 128)
        assert ext128.shape == (2, 4 * 137)

    def test_beats_decode_to_valid_codewords(self, rng):
        from repro.ecc.hamming import HammingSecded

        bits = rng.integers(0, 2, size=(3, 512)).astype(np.uint8)
        ext = secded_extend_stream(bits, 64)
        code = HammingSecded(64)
        beats = ext.reshape(-1, 72)
        for beat in beats:
            data, parity = beat[:64], beat[64:]
            codeword = np.zeros(code.codeword_bits, dtype=np.uint8)
            codeword[code._data_positions - 1] = data
            codeword[code._parity_positions - 1] = parity[:-1]
            codeword[-1] = parity[-1]
            result = code.decode(codeword)
            assert result.status[0] is DecodeStatus.OK

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError, match="segments"):
            secded_extend_stream(np.zeros((1, 512), dtype=np.uint8), 100)
