"""Unit and property tests for repro.util.bitops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import bitops


class TestIntBits:
    def test_int_to_bits_little_endian(self):
        bits = bitops.int_to_bits(0b1011, 4)
        assert bits.tolist() == [1, 1, 0, 1]

    def test_int_to_bits_zero(self):
        assert bitops.int_to_bits(0, 8).tolist() == [0] * 8

    def test_int_to_bits_full_width(self):
        assert bitops.int_to_bits(255, 8).tolist() == [1] * 8

    def test_int_to_bits_overflow_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            bitops.int_to_bits(256, 8)

    def test_int_to_bits_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            bitops.int_to_bits(-1, 8)

    def test_bits_to_int_inverse(self):
        assert bitops.bits_to_int(np.array([1, 0, 1], dtype=np.uint8)) == 5

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_64(self, value):
        assert bitops.bits_to_int(bitops.int_to_bits(value, 64)) == value

    @given(st.integers(min_value=0, max_value=2**512 - 1))
    def test_roundtrip_512(self, value):
        assert bitops.bits_to_int(bitops.int_to_bits(value, 512)) == value


class TestChunks:
    def test_int_to_chunks_lsb_first(self):
        chunks = bitops.int_to_chunks(0xABCD, 4, 4)
        assert chunks.tolist() == [0xD, 0xC, 0xB, 0xA]

    def test_chunks_to_int_inverse(self):
        chunks = np.array([0xD, 0xC, 0xB, 0xA])
        assert bitops.chunks_to_int(chunks, 4) == 0xABCD

    def test_int_to_chunks_overflow_raises(self):
        with pytest.raises(ValueError, match="more than"):
            bitops.int_to_chunks(1 << 16, 4, 4)

    def test_chunks_to_int_bad_chunk_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            bitops.chunks_to_int(np.array([16]), 4)

    def test_zero_chunk_bits_raises(self):
        with pytest.raises(ValueError, match="positive"):
            bitops.int_to_chunks(0, 0, 4)

    @given(st.integers(min_value=0, max_value=2**128 - 1),
           st.sampled_from([1, 2, 4, 8]))
    def test_roundtrip_chunks(self, value, chunk_bits):
        num = 128 // chunk_bits
        chunks = bitops.int_to_chunks(value, chunk_bits, num)
        assert bitops.chunks_to_int(chunks, chunk_bits) == value

    def test_bits_to_chunks_matches_int_path(self):
        value = 0xDEADBEEF
        bits = bitops.int_to_bits(value, 32)
        via_bits = bitops.bits_to_chunks(bits, 4)
        via_int = bitops.int_to_chunks(value, 4, 8)
        assert np.array_equal(via_bits, via_int)

    def test_chunks_to_bits_inverse(self):
        chunks = np.array([3, 7, 0, 15], dtype=np.int64)
        bits = bitops.chunks_to_bits(chunks, 4)
        assert np.array_equal(bitops.bits_to_chunks(bits, 4), chunks)

    def test_bits_to_chunks_bad_width_raises(self):
        with pytest.raises(ValueError, match="multiple"):
            bitops.bits_to_chunks(np.zeros(10, dtype=np.uint8), 4)


class TestHamming:
    def test_hamming_distance(self):
        assert bitops.hamming_distance(0b1010, 0b0110) == 2

    def test_hamming_distance_self(self):
        assert bitops.hamming_distance(12345, 12345) == 0

    def test_hamming_weight(self):
        assert bitops.hamming_weight(0b10110) == 3

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_distance_is_weight_of_xor(self, a, b):
        assert bitops.hamming_distance(a, b) == bitops.hamming_weight(a ^ b)

    def test_popcount_array(self):
        values = np.array([0, 1, 3, 255, 2**40 - 1], dtype=np.int64)
        assert bitops.popcount_array(values).tolist() == [0, 1, 2, 8, 40]

    @given(st.lists(st.integers(min_value=0, max_value=2**62 - 1),
                    min_size=1, max_size=20))
    def test_popcount_matches_python(self, values):
        arr = np.array(values, dtype=np.int64)
        expected = [v.bit_count() for v in values]
        assert bitops.popcount_array(arr).tolist() == expected


class TestRandom:
    def test_random_bits_shape_and_values(self, rng):
        bits = bitops.random_bits(100, rng)
        assert bits.shape == (100,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_random_block_fits(self, rng):
        for _ in range(20):
            assert 0 <= bitops.random_block(64, rng) < 2**64

    def test_deterministic_with_seed(self):
        a = bitops.random_bits(64, np.random.default_rng(7))
        b = bitops.random_bits(64, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestMatrixConverters:
    def test_bit_matrix_to_chunks_matches_rowwise(self, rng):
        bits = rng.integers(0, 2, size=(10, 64), dtype=np.uint8)
        chunks = bitops.bit_matrix_to_chunks(bits, 4)
        for row_bits, row_chunks in zip(bits, chunks, strict=True):
            assert np.array_equal(
                bitops.bits_to_chunks(row_bits, 4), row_chunks
            )

    def test_chunk_matrix_to_bits_matches_rowwise(self, rng):
        chunks = rng.integers(0, 16, size=(10, 16), dtype=np.int64)
        bits = bitops.chunk_matrix_to_bits(chunks, 4)
        for row_chunks, row_bits in zip(chunks, bits, strict=True):
            assert np.array_equal(
                bitops.chunks_to_bits(row_chunks, 4), row_bits
            )

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**31))
    def test_matrix_roundtrip(self, chunk_bits, num_chunks, seed):
        rng = np.random.default_rng(seed)
        chunks = rng.integers(0, 2**chunk_bits, size=(5, num_chunks),
                              dtype=np.int64)
        bits = bitops.chunk_matrix_to_bits(chunks, chunk_bits)
        assert bits.shape == (5, num_chunks * chunk_bits)
        assert np.array_equal(
            bitops.bit_matrix_to_chunks(bits, chunk_bits), chunks
        )

    def test_width_not_multiple_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            bitops.bit_matrix_to_chunks(np.zeros((2, 10), dtype=np.uint8), 4)

    @pytest.mark.parametrize("chunk_bits", [64, 128, 512])
    def test_chunks_wider_than_int64_rejected(self, chunk_bits):
        """A 64-bit chunk with bit 63 set used to read -2**63, and a
        128-bit chunk read 0."""
        bits = np.zeros((1, 512), dtype=np.uint8)
        bits[0, 63] = 1
        with pytest.raises(ValueError, match="chunk_bits"):
            bitops.bit_matrix_to_chunks(bits, chunk_bits)

    def test_widest_int64_chunk_keeps_its_top_bit(self):
        bits = np.zeros((1, 63), dtype=np.uint8)
        bits[0, 62] = 1
        assert bitops.bit_matrix_to_chunks(bits, 63)[0, 0] == 2**62

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            bitops.bit_matrix_to_chunks(np.zeros(8, dtype=np.uint8), 4)
        with pytest.raises(ValueError, match="2-D"):
            bitops.chunk_matrix_to_bits(np.zeros(8, dtype=np.int64), 4)
