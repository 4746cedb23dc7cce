"""Tests for the SECDED Hamming codes, including the paper's two codes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.hamming import DecodeStatus, HammingSecded


class TestCodeGeometry:
    def test_72_64(self):
        code = HammingSecded(64)
        assert (code.codeword_bits, code.data_bits) == (72, 64)
        assert code.parity_bits == 8

    def test_137_128(self):
        """The code of Figure 9: nine parity bits per 128-bit segment."""
        code = HammingSecded(128)
        assert (code.codeword_bits, code.data_bits) == (137, 128)
        assert code.parity_bits == 9

    @pytest.mark.parametrize("data,expected", [(8, 13), (16, 22), (32, 39)])
    def test_smaller_codes(self, data, expected):
        assert HammingSecded(data).codeword_bits == expected


class TestCleanDecode:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    def test_roundtrip(self, data_bits, rng):
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(20, data_bits)).astype(np.uint8)
        result = code.decode(code.encode(data))
        assert np.array_equal(result.data, data)
        assert all(s is DecodeStatus.OK for s in result.status)

    def test_single_word_shapes(self):
        code = HammingSecded(8)
        cw = code.encode(np.zeros(8, dtype=np.uint8))
        assert cw.shape == (1, 13)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="data bits"):
            HammingSecded(8).encode(np.zeros((1, 9), dtype=np.uint8))


class TestSingleErrorCorrection:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    def test_every_position_corrected(self, data_bits, rng):
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(3, data_bits)).astype(np.uint8)
        clean = code.encode(data)
        for pos in range(code.codeword_bits):
            corrupted = clean.copy()
            corrupted[:, pos] ^= 1
            result = code.decode(corrupted)
            assert np.array_equal(result.data, data), f"position {pos}"
            assert all(s is DecodeStatus.CORRECTED for s in result.status)

    def test_corrected_position_reported(self, rng):
        code = HammingSecded(64)
        data = rng.integers(0, 2, size=(1, 64)).astype(np.uint8)
        cw = code.encode(data)
        cw[0, 10] ^= 1
        result = code.decode(cw)
        assert result.corrected_position[0] == 10


class TestDoubleErrorDetection:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_pairs_detected(self, data_bits, seed):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(1, data_bits)).astype(np.uint8)
        cw = code.encode(data)
        i, j = rng.choice(code.codeword_bits, size=2, replace=False)
        cw[0, i] ^= 1
        cw[0, j] ^= 1
        result = code.decode(cw)
        assert result.status[0] is DecodeStatus.DETECTED

    def test_exhaustive_pairs_small_code(self, rng):
        """Every possible double error in the (13, 8) code is detected."""
        code = HammingSecded(8)
        data = rng.integers(0, 2, size=(1, 8)).astype(np.uint8)
        clean = code.encode(data)
        for i in range(code.codeword_bits):
            for j in range(i + 1, code.codeword_bits):
                corrupted = clean.copy()
                corrupted[0, i] ^= 1
                corrupted[0, j] ^= 1
                result = code.decode(corrupted)
                assert result.status[0] is DecodeStatus.DETECTED, (i, j)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """``(words, data_bits)`` 0/1 → ``(words, ceil(data_bits / 64))`` uint64."""
    words = -(-bits.shape[1] // 64)
    padded = np.zeros((bits.shape[0], words * 64), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


class TestPackedCheckBits:
    """``check_bits`` on packed words equals ``encode``'s check columns."""

    @settings(max_examples=25, deadline=None)
    @given(
        data_bits=st.sampled_from([8, 16, 32, 64, 128, 256]),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    )
    def test_matches_encode(self, data_bits, seed, density):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        data = (rng.random((40, data_bits)) < density).astype(np.uint8)
        codewords = code.encode(data)
        # Wire order: Hamming parities at positions 2**i, then overall.
        expected = codewords[:, [(1 << i) - 1 for i in range(code.hamming_parity_bits)] + [-1]]
        got = code.check_bits(_pack_rows(data))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, expected)

    def test_single_data_bit_sets_its_covering_rows(self):
        code = HammingSecded(64)
        for k in range(64):
            data = np.zeros((1, 64), dtype=np.uint8)
            data[0, k] = 1
            position = int(code._data_positions[k])
            expected = [(position >> i) & 1 for i in range(code.hamming_parity_bits)]
            # One data bit plus its odd or even number of parities.
            expected.append((1 + sum(expected)) & 1)
            assert code.check_bits(_pack_rows(data))[0].tolist() == expected


class TestCheckWords:
    """``check_words`` from byte (or narrower) units equals ``encode``'s
    check columns."""

    @settings(max_examples=30, deadline=None)
    @given(
        data_bits=st.sampled_from([8, 16, 32, 64, 128, 256]),
        unit_bits=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    )
    def test_matches_encode(self, data_bits, unit_bits, seed, density):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        data = (rng.random((40, data_bits)) < density).astype(np.uint8)
        codewords = code.encode(data)
        columns = [(1 << i) - 1 for i in range(code.hamming_parity_bits)] + [-1]
        expected = codewords[:, columns]
        units = (
            data.reshape(40, -1, unit_bits) << np.arange(unit_bits, dtype=np.uint8)
        ).sum(axis=2, dtype=np.uint8)
        words = code.check_words(units)
        assert words.dtype == np.uint32
        got = (words[:, None] >> np.arange(code.parity_bits)) & 1
        np.testing.assert_array_equal(got, expected)

    def test_rejects_units_wider_than_a_byte(self):
        with pytest.raises(ValueError, match="units"):
            HammingSecded(64).check_words(np.zeros((2, 4), dtype=np.uint16))


class TestPackedDecode:
    """``decode_check_bits`` on wire-order bits equals ``decode``."""

    @settings(max_examples=40, deadline=None)
    @given(
        data_bits=st.sampled_from([8, 16, 64, 128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_decode_with_up_to_three_flips(self, data_bits, seed):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(40, data_bits)).astype(np.uint8)
        codewords = code.encode(data)
        for row in codewords:
            flips = rng.integers(0, 4)
            row[rng.choice(code.codeword_bits, size=flips, replace=False)] ^= 1
        # Wire order: the data positions, then the Hamming parities at
        # positions 2**i, then the overall parity.
        length = code.data_bits + code.hamming_parity_bits
        data_columns = [p - 1 for p in range(1, length + 1) if p & (p - 1)]
        check_columns = [(1 << i) - 1 for i in range(code.hamming_parity_bits)] + [-1]
        got = code.decode_check_bits(
            codewords[:, data_columns], codewords[:, check_columns]
        )
        want = code.decode(codewords)
        assert got.status.tolist() == want.status.tolist()
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(
            got.corrected_position, want.corrected_position
        )

    def test_rejects_mismatched_widths(self):
        code = HammingSecded(16)
        with pytest.raises(ValueError, match="check bits"):
            code.decode_check_bits(
                np.zeros((2, 16), dtype=np.uint8), np.zeros((2, 5), dtype=np.uint8)
            )

    def test_leaves_its_input_untouched(self):
        code = HammingSecded(16)
        data = np.zeros((1, 16), dtype=np.uint8)
        check = code.check_bits(code.pack_data(data))
        data[0, 3] = 1  # a single data error, corrected in the result
        result = code.decode_check_bits(data, check)
        assert result.status.tolist() == [DecodeStatus.CORRECTED]
        assert not result.data.any()
        assert data[0, 3] == 1
