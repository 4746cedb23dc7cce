"""Bit-level helpers shared by the encoding, ECC, and core packages.

The simulator manipulates cache blocks in three interchangeable forms:

* **int** — an arbitrary-precision Python integer (bit ``i`` is
  ``(value >> i) & 1``).
* **bit array** — a ``numpy`` ``uint8`` array of 0/1 values, index ``i``
  holding bit ``i`` (little-endian bit order).
* **chunk array** — a ``numpy`` ``int64`` array of fixed-width fields cut
  from the bit string, chunk 0 holding the least-significant bits.

All converters here round-trip exactly and are property-tested in
``tests/util/test_bitops.py``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batched import popcount
from repro.util.validation import require_in_range

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "int_to_chunks",
    "chunks_to_int",
    "bits_to_chunks",
    "chunks_to_bits",
    "bit_matrix_to_chunks",
    "chunk_matrix_to_bits",
    "hamming_distance",
    "hamming_weight",
    "popcount_array",
    "random_bits",
    "random_block",
]


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Expand ``value`` into ``width`` little-endian bits.

    Raises ``ValueError`` if the value does not fit or is negative.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    if width == 0:
        return np.empty(0, dtype=np.uint8)
    raw = value.to_bytes((width + 7) // 8, "little")
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return unpacked[:width]


def bits_to_int(bits: np.ndarray) -> int:
    """Collapse a little-endian 0/1 array back into an integer."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return 0
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_chunks(value: int, chunk_bits: int, num_chunks: int) -> np.ndarray:
    """Split ``value`` into ``num_chunks`` fields of ``chunk_bits`` each.

    Chunk 0 receives the least-significant field, mirroring the paper's
    partitioning of a cache block into contiguous chunks (Figure 4).
    """
    if chunk_bits <= 0:
        raise ValueError(f"chunk_bits must be positive, got {chunk_bits}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >> (chunk_bits * num_chunks):
        raise ValueError(
            f"value needs more than {num_chunks} chunks of {chunk_bits} bits"
        )
    mask = (1 << chunk_bits) - 1
    chunks = np.empty(num_chunks, dtype=np.int64)
    for i in range(num_chunks):
        chunks[i] = (value >> (i * chunk_bits)) & mask
    return chunks


def chunks_to_int(chunks: np.ndarray, chunk_bits: int) -> int:
    """Inverse of :func:`int_to_chunks`."""
    value = 0
    for i, chunk in enumerate(chunks):
        chunk = int(chunk)
        if chunk < 0 or chunk >> chunk_bits:
            raise ValueError(
                f"chunk {i} value {chunk} does not fit in {chunk_bits} bits"
            )
        value |= chunk << (i * chunk_bits)
    return value


def bits_to_chunks(bits: np.ndarray, chunk_bits: int) -> np.ndarray:
    """Group a little-endian bit array into ``chunk_bits``-wide fields."""
    return bit_matrix_to_chunks(np.asarray(bits)[None, :], chunk_bits)[0]


def chunks_to_bits(chunks: np.ndarray, chunk_bits: int) -> np.ndarray:
    """Inverse of :func:`bits_to_chunks`."""
    return chunk_matrix_to_bits(np.asarray(chunks)[None, :], chunk_bits)[0]


def bit_matrix_to_chunks(bits: np.ndarray, chunk_bits: int) -> np.ndarray:
    """Regroup a ``(n, width)`` bit matrix into ``chunk_bits``-wide fields.

    The vectorized batch form of :func:`bits_to_chunks`: row ``i`` of the
    result holds the chunk values of block ``i``, chunk 0 taking the
    least-significant bits.  This is the one bit→chunk implementation on
    bit matrices; the single-block helpers delegate here, and
    :meth:`repro.kernels.pipeline.PackedBits.chunks` computes the same
    values from packed words.  Chunks of 64 bits or more do not fit an
    int64 value and are rejected.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    require_in_range("chunk_bits", chunk_bits, 1, 63)
    n, width = bits.shape
    if width % chunk_bits:
        raise ValueError(
            f"bit width {width} is not a multiple of chunk size {chunk_bits}"
        )
    weights = (1 << np.arange(chunk_bits, dtype=np.int64))
    grouped = bits.astype(np.int64).reshape(n, width // chunk_bits, chunk_bits)
    return grouped @ weights


def chunk_matrix_to_bits(chunks: np.ndarray, chunk_bits: int) -> np.ndarray:
    """Inverse of :func:`bit_matrix_to_chunks` (little-endian bit order)."""
    chunks = np.asarray(chunks)
    if chunks.ndim != 2:
        raise ValueError(
            f"expected a 2-D chunk matrix, got shape {chunks.shape}"
        )
    shifts = np.arange(chunk_bits, dtype=np.int64)
    expanded = ((chunks.astype(np.int64)[:, :, None] >> shifts) & 1).astype(
        np.uint8
    )
    return expanded.reshape(chunks.shape[0], -1)


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which ``a`` and ``b`` differ."""
    return (a ^ b).bit_count()


def hamming_weight(a: int) -> int:
    """Number of set bits in ``a``."""
    return a.bit_count()


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Per-element population count for a non-negative int64 array.

    Delegates to the batched kernel (:func:`repro.kernels.popcount`):
    one hardware ``popcnt`` pass instead of a shift-and-mask loop.
    """
    return popcount(values)


def random_bits(width: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random little-endian bit array of the given width."""
    return rng.integers(0, 2, size=width, dtype=np.uint8)


def random_block(width: int, rng: np.random.Generator) -> int:
    """Uniform random ``width``-bit integer."""
    return bits_to_int(random_bits(width, rng))
