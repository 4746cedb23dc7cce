"""DESC's chunk-interleaved ECC data layout (Figure 9, Section 3.2.3).

DESC transfers a whole chunk with a single wire transition, so one wire
error can corrupt up to ``chunk_bits`` bits at once.  To keep
conventional SECDED usable, the cache block is cut into ``segments``
(e.g. four 128-bit segments protected by (137, 128) codes) and the bits
are interleaved so that **every chunk carries at most one bit of each
segment** — a corrupted chunk then costs each segment at most a single
bit, which SECDED corrects; two corrupted chunks cost at most two bits
per segment, which SECDED detects.

Mapping: data bit ``p`` of segment ``s`` rides in lane ``s % chunk_bits``
of data chunk ``p * (num_segments // chunk_bits) + s // chunk_bits``;
the per-segment parity bits are interleaved into parity chunks the same
way.  For the paper's default — 512-bit blocks, four 128-bit segments,
4-bit chunks — this gives 128 data chunks plus 9 parity chunks, i.e.
nine additional wires, exactly as Section 3.2.3 states.

The stream encoders work on packed words (``PackedBits``): check bits
come from the segments' bytes (:meth:`HammingSecded.check_words`) and
the interleave spreads whole bytes at a time, so no block is unpacked
into a 0/1 matrix.  :func:`secded_extend_stream` still widens a bit
matrix, for the encoders that stream data and check bits together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.ecc.hamming import DecodeStatus, HammingSecded
from repro.kernels.pipeline import PackedBits
from repro.util.validation import (
    require_in_range,
    require_multiple,
    require_positive,
)

__all__ = [
    "EccBlockResult",
    "DescEccLayout",
    "secded_check_words",
    "secded_extend_stream",
]


def _bit_matrix(blocks_bits) -> np.ndarray:
    """The ``(n, block_bits)`` 0/1 matrix of a :class:`PackedBits` or
    an array-like."""
    if isinstance(blocks_bits, PackedBits):
        return blocks_bits.bits
    bits = np.asarray(blocks_bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    return bits


def _packed(blocks_bits) -> PackedBits:
    """A :class:`PackedBits` of the blocks, packing a 0/1 matrix once."""
    if isinstance(blocks_bits, PackedBits):
        return blocks_bits
    return PackedBits.from_bits(_bit_matrix(blocks_bits))


def _unit_bits(segment_bits: int, stride: int) -> int:
    """The widest unit of at most a byte that a segment cuts into
    evenly and whose bits, spread ``stride`` apart, fit 64 bits."""
    return next(
        unit for unit in (8, 4, 2, 1)
        if segment_bits % unit == 0 and unit * stride <= 64
    )


def _segment_units(
    packed: PackedBits, segment_bits: int, stride: int
) -> tuple[np.ndarray, int]:
    """``(n, segments, units)`` uint8 unit values and the unit width."""
    unit = _unit_bits(segment_bits, stride)
    units = packed.chunks(unit, dtype=np.uint8)
    return units.reshape(packed.num_blocks, -1, segment_bits // unit), unit


@lru_cache(maxsize=None)
def _spread_table(unit_bits: int, stride: int) -> np.ndarray:
    """Table moving bit ``q`` of a unit value to bit ``q * stride``, in
    the narrowest unsigned type that holds ``unit_bits * stride`` bits."""
    dtype = np.min_scalar_type((1 << (unit_bits * stride)) - 1)
    values = np.arange(1 << unit_bits, dtype=dtype)
    spread = np.zeros_like(values)
    for bit in range(unit_bits):
        spread |= ((values >> dtype.type(bit)) & dtype.type(1)) << dtype.type(
            bit * stride
        )
    return spread


def secded_check_words(blocks_bits, segment_bits: int) -> np.ndarray:
    """SECDED check bits of every ``segment_bits`` segment of a stream.

    ``blocks_bits`` is a :class:`PackedBits` or a 0/1 matrix.  Returns
    ``(n, num_segments)`` uint32, check bit ``j`` of a segment at bit
    ``j`` (:meth:`HammingSecded.check_words`), taken from the packed
    bytes of the segments.  On a binary bus each beat carries one
    segment and its check bits on wires of their own, so the parity
    wires flip where consecutive check words differ.
    """
    packed = _packed(blocks_bits)
    if packed.block_bits % segment_bits:
        raise ValueError(
            f"blocks of shape {packed.shape} cannot be cut into "
            f"{segment_bits}-bit segments"
        )
    units, _ = _segment_units(packed, segment_bits, 1)
    code = HammingSecded(segment_bits)
    words = code.check_words(units.reshape(-1, units.shape[2]))
    return words.reshape(packed.num_blocks, -1)


def secded_extend_stream(blocks_bits, segment_bits: int) -> np.ndarray:
    """Append SECDED check bits for a *binary* bus (Figures 28/29).

    Under binary encoding each bus beat carries one ``segment_bits``
    data segment plus its check bits on dedicated parity wires (the
    ``W-S`` configurations with ``W == S``).  This helper widens a
    ``(n, block_bits)`` stream — a :class:`PackedBits` or a 0/1 matrix
    — to a ``(n, nseg * (segment_bits + p))`` 0/1 matrix with each
    segment's bits followed by its check bits, ready for an encoder
    at width ``segment_bits + p``.  It unpacks the stream; the binary
    transfer model needs only the check words
    (:func:`secded_check_words`), and this widened matrix is the
    reference its costs are tested against.
    """
    bits = _bit_matrix(blocks_bits)
    n, block_bits = bits.shape
    if block_bits % segment_bits:
        raise ValueError(
            f"blocks of shape {bits.shape} cannot be cut into "
            f"{segment_bits}-bit segments"
        )
    nseg = block_bits // segment_bits
    code = HammingSecded(segment_bits)
    segments = bits.reshape(n * nseg, segment_bits)
    check = code.check_bits(code.pack_data(segments))
    beats = np.concatenate([segments, check], axis=1)
    return beats.reshape(n, nseg * (segment_bits + code.parity_bits))


@dataclass(frozen=True)
class EccBlockResult:
    """Outcome of decoding one protected block.

    Attributes:
        data_bits: ``(block_bits,)`` corrected data bits.
        status: Per-segment :class:`DecodeStatus` values.
    """

    data_bits: np.ndarray
    status: tuple[DecodeStatus, ...]

    @property
    def ok(self) -> bool:
        """True when every segment decoded without an uncorrectable error."""
        return all(s != DecodeStatus.DETECTED for s in self.status)


class DescEccLayout:
    """Interleaves data + SECDED parity into DESC chunks."""

    def __init__(
        self, block_bits: int = 512, segment_bits: int = 128, chunk_bits: int = 4
    ) -> None:
        require_positive("block_bits", block_bits)
        require_positive("segment_bits", segment_bits)
        require_in_range("chunk_bits", chunk_bits, 1, 63)  # int64 chunk values
        require_multiple("block_bits", block_bits, segment_bits)
        self.block_bits = block_bits
        self.segment_bits = segment_bits
        self.chunk_bits = chunk_bits
        self.num_segments = block_bits // segment_bits
        if self.num_segments % chunk_bits:
            raise ValueError(
                f"{self.num_segments} segments cannot interleave evenly into "
                f"{chunk_bits}-bit chunks"
            )
        self.code = HammingSecded(segment_bits)

    @property
    def parity_bits_per_segment(self) -> int:
        """SECDED check bits protecting each segment."""
        return self.code.parity_bits

    @property
    def num_data_chunks(self) -> int:
        """Chunks carrying data bits (128 in the default layout)."""
        return self.block_bits // self.chunk_bits

    @property
    def num_parity_chunks(self) -> int:
        """Chunks carrying parity bits (the "additional wires")."""
        return (
            self.parity_bits_per_segment * self.num_segments // self.chunk_bits
        )

    @property
    def num_chunks(self) -> int:
        """All chunks of a protected block transfer."""
        return self.num_data_chunks + self.num_parity_chunks

    @property
    def codeword_bits_total(self) -> int:
        """Bits on the wires per protected block."""
        return self.num_chunks * self.chunk_bits

    @cached_property
    def _groups_per_lane(self) -> int:
        return self.num_segments // self.chunk_bits

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each received bit rides: ``(chunk, lane)`` index arrays.

        Both are ``(num_segments, segment_bits + parity_bits)``: row
        ``s`` lists segment ``s``'s data bits, then its check bits, as
        :meth:`_interleave_stream` placed them.
        """
        g = self._groups_per_lane
        segment = np.arange(self.num_segments)[:, None]
        data_chunk = np.arange(self.segment_bits) * g + segment // self.chunk_bits
        parity_chunk = (
            self.num_data_chunks
            + np.arange(self.parity_bits_per_segment) * g
            + segment // self.chunk_bits
        )
        return (
            np.concatenate([data_chunk, parity_chunk], axis=1),
            segment % self.chunk_bits,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def encode_block(self, data_bits: np.ndarray) -> np.ndarray:
        """Protect a block: returns the chunk values put on the wires.

        The first :attr:`num_data_chunks` values are data chunks, the
        rest parity chunks.
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        if data_bits.shape != (self.block_bits,):
            raise ValueError(
                f"expected {self.block_bits} data bits, got {data_bits.shape}"
            )
        return self.encode_stream(data_bits[None])[0]

    def encode_stream(self, blocks_bits) -> np.ndarray:
        """Protect ``(n, block_bits)`` blocks: a :class:`PackedBits` or a
        0/1 matrix (packed here, once).

        Returns ``(n, num_chunks)`` chunk values (data chunks first,
        then parity chunks) — the wire stream the ECC benchmarks feed
        to the DESC cost model.  The Hamming construction scatters data
        bits over the non-power-of-two codeword positions; on the wires
        the segments keep their natural order and the check bits
        (Hamming parities, then the overall parity) ride separately,
        re-assembled into position-ordered codewords at decode.  Both
        the check bits and the interleave read the packed bytes.
        """
        packed = _packed(blocks_bits)
        if packed.block_bits != self.block_bits:
            raise ValueError(
                f"expected blocks of shape (n, {self.block_bits}), "
                f"got {packed.shape}"
            )
        n = packed.num_blocks
        c = self.chunk_bits
        units, unit = _segment_units(packed, self.segment_bits, c)
        check = self.code.check_words(units.reshape(n * self.num_segments, -1))
        # A segment's check word interleaves whole when its spread bits
        # fit 64 bits; otherwise bit by bit.
        p = self.parity_bits_per_segment
        if p * c > 64:
            check = (check[:, None] >> np.arange(p, dtype=np.uint32)) & 1
            p = 1
        out = np.empty((n, self.num_chunks), dtype=np.int64)
        data = self.num_data_chunks
        self._interleave_stream(units, unit, out[:, :data])
        self._interleave_stream(
            check.reshape(n, self.num_segments, -1), p, out[:, data:]
        )
        return out

    def _interleave_stream(
        self, units: np.ndarray, unit_bits: int, out: np.ndarray
    ) -> None:
        """Write the chunk values of ``(n, num_segments, k)`` values of
        ``unit_bits`` bits each into ``out``, ``(n, k * unit_bits *
        groups)``.

        Segment ``s = group * chunk_bits + lane`` contributes its bit
        ``p`` to lane ``lane`` of chunk ``p * groups + group``.  A table
        spreads a unit's bits ``chunk_bits`` apart, so shifting it into
        its lane and OR-ing a group's lanes yields ``unit_bits`` whole
        chunks at once, which are then cut apart.
        """
        n, _, k = units.shape
        c = self.chunk_bits
        g = self._groups_per_lane
        table = _spread_table(unit_bits, c)
        word = table.dtype.type
        lanes = table[units].reshape(n, g, c, k)
        merged = lanes[:, :, 0].copy()
        for lane in range(1, c):
            merged |= lanes[:, :, lane] << word(lane)
        shifts = np.arange(0, unit_bits * c, c, dtype=table.dtype)
        cut = (merged[..., None] >> shifts) & word((1 << c) - 1)
        # (n, group, unit, bit) -> chunk (unit * unit_bits + bit) * g + group;
        # the reshape only splits each row of ``out``, so it is a view.
        out.reshape(n, k, unit_bits, g)[...] = cut.transpose(0, 2, 3, 1)

    def decode_block(self, chunks: np.ndarray) -> EccBlockResult:
        """Recover (and correct) a block from possibly corrupted chunks."""
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.shape != (self.num_chunks,):
            raise ValueError(
                f"expected {self.num_chunks} chunk values, got {chunks.shape}"
            )
        chunk, lane = self._gather
        words = ((chunks[chunk] >> lane) & 1).astype(np.uint8)
        result = self.code.decode_check_bits(
            words[:, : self.segment_bits], words[:, self.segment_bits:]
        )
        return EccBlockResult(
            data_bits=result.data.reshape(-1),
            status=tuple(result.status),
        )

    def __repr__(self) -> str:
        return (
            f"DescEccLayout(({self.code.codeword_bits}, {self.segment_bits}) x "
            f"{self.num_segments}, chunk_bits={self.chunk_bits})"
        )
