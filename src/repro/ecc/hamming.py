"""SECDED extended Hamming codes — (72, 64) and (137, 128) and friends.

Single-error-correcting, double-error-detecting codes built the
classical way: data bits occupy the non-power-of-two positions of the
codeword (1-indexed), each Hamming parity bit at position ``2**i``
covers the positions whose index has bit ``i`` set, and one extra
overall-parity bit extends the code to double-error detection
(Slayman [22] in the paper).

For 64 data bits this yields 7 + 1 = 8 check bits — the (72, 64) code —
and for 128 data bits 8 + 1 = 9 — the (137, 128) code the DESC ECC
layout of Figure 9 uses.

:meth:`HammingSecded.encode` and :meth:`HammingSecded.decode` work on
0/1 matrices of whole codewords; they are the per-word specification.
The ECC stream paths (:mod:`repro.ecc.layout`) encode with
:meth:`HammingSecded.check_words`, which XORs one table entry per data
byte (the code is linear, so a word's check bits are the XOR of its
bytes' check bits), and decode with
:meth:`HammingSecded.decode_check_bits`, whose syndrome is the received
check bits XOR the check bits of the received data
(:meth:`HammingSecded.check_bits`, one popcount parity per Hamming row
over packed data words).  The tests hold each against the
specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from repro.kernels.batched import popcount
from repro.util.validation import require_positive

__all__ = ["DecodeStatus", "DecodeResult", "HammingSecded"]


class DecodeStatus(Enum):
    """Outcome of decoding one codeword."""

    OK = "ok"
    CORRECTED = "corrected"
    DETECTED = "detected"  # uncorrectable double error


@dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus the per-word error status.

    Attributes:
        data: ``(words, data_bits)`` corrected data bits.
        status: ``(words,)`` array of :class:`DecodeStatus` values.
        corrected_position: ``(words,)`` 0-based corrected codeword
            position, or -1 where nothing was corrected.
    """

    data: np.ndarray
    status: np.ndarray
    corrected_position: np.ndarray


class HammingSecded:
    """A SECDED extended Hamming code over ``data_bits`` bits."""

    def __init__(self, data_bits: int) -> None:
        require_positive("data_bits", data_bits)
        self.data_bits = data_bits
        self.hamming_parity_bits = self._required_parity_bits(data_bits)
        # +1 for the overall parity bit that upgrades SEC to SECDED.
        self.parity_bits = self.hamming_parity_bits + 1
        self.codeword_bits = data_bits + self.parity_bits

    @staticmethod
    def _required_parity_bits(data_bits: int) -> int:
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    # ------------------------------------------------------------------
    # Code geometry
    # ------------------------------------------------------------------

    @cached_property
    def _data_positions(self) -> np.ndarray:
        """1-indexed Hamming positions holding data bits."""
        positions = [
            p
            for p in range(1, self.data_bits + self.hamming_parity_bits + 1)
            if p & (p - 1)  # skip powers of two (parity positions)
        ]
        return np.asarray(positions, dtype=np.int64)

    @cached_property
    def _parity_positions(self) -> np.ndarray:
        """1-indexed Hamming positions holding Hamming parity bits."""
        return np.asarray(
            [1 << i for i in range(self.hamming_parity_bits)], dtype=np.int64
        )

    @cached_property
    def _coverage(self) -> np.ndarray:
        """``(hamming_parity_bits, hamming_codeword)`` coverage matrix.

        Row ``i`` marks the 1-indexed positions whose index has bit
        ``i`` set — the positions parity bit ``2**i`` checks.
        """
        length = self.data_bits + self.hamming_parity_bits
        positions = np.arange(1, length + 1, dtype=np.int64)
        rows = [
            ((positions >> i) & 1).astype(np.uint8)
            for i in range(self.hamming_parity_bits)
        ]
        return np.stack(rows)

    @cached_property
    def _data_index(self) -> np.ndarray:
        """Data bit at each 1-indexed Hamming position (-1: a parity bit)."""
        index = np.full(self.data_bits + self.hamming_parity_bits + 1, -1)
        index[self._data_positions] = np.arange(self.data_bits)
        return index

    @cached_property
    def _row_masks(self) -> np.ndarray:
        """``(hamming_parity_bits, data_words)`` uint64 masks.

        Row ``i`` marks the data bits whose codeword position has bit
        ``i`` set, i.e. the data bits Hamming parity ``2**i`` covers.
        """
        return self.pack_data(self._coverage[:, self._data_positions - 1])

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    @staticmethod
    def pack_data(data: np.ndarray) -> np.ndarray:
        """``(words, bits)`` 0/1 → ``(words, ceil(bits / 64))`` uint64.

        Bit ``k`` of a row lands at bit ``k % 64`` of word ``k // 64``,
        zero-padded: the layout :meth:`check_bits` reads.
        """
        packed = np.packbits(data, axis=1, bitorder="little")
        if packed.shape[1] % 8:
            packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
        return np.ascontiguousarray(packed).view("<u8")

    def check_bits(self, data_words: np.ndarray) -> np.ndarray:
        """Check bits of packed data, in wire order.

        ``data_words`` is ``(words, ceil(data_bits / 64))`` uint64: data
        bit ``k`` at bit ``k % 64`` of word ``k // 64``, zero above
        ``data_bits``.  Returns ``(words, parity_bits)`` uint8 — Hamming
        parities ``2**0, 2**1, ...`` then the overall parity, the same
        bits :meth:`encode` puts at those positions.  Hamming parity
        ``i`` is the parity of ``popcount(data & mask_i)``; the overall
        parity covers the data and the Hamming parities.
        """
        data_words = np.asarray(data_words, dtype=np.uint64)
        masks = self._row_masks
        # Parity is linear: XOR-fold a row's uint64 words first, then
        # one popcount per (row, Hamming row) suffices.
        covered = data_words[:, :1] & masks[:, 0]
        folded = data_words[:, 0].copy()
        for word in range(1, data_words.shape[1]):
            covered ^= data_words[:, word : word + 1] & masks[:, word]
            folded ^= data_words[:, word]
        hamming = popcount(covered) & 1
        overall = (popcount(folded) + hamming.sum(axis=1)) & 1
        return np.concatenate([hamming, overall[:, None]], axis=1).astype(np.uint8)

    def check_words(self, units: np.ndarray) -> np.ndarray:
        """Check bits of data given as unit values, one integer per word.

        ``units`` is ``(words, k)``: each word's data cut into ``k``
        units of ``data_bits // k`` bits (at most 8), unit 0 holding
        data bits ``0, 1, ...`` from its least-significant bit up, as
        ``PackedBits.chunks`` cuts them.  Returns ``(words,)`` uint32
        with check bit ``j``, in :meth:`check_bits` order, at bit ``j``.
        The code is linear, so the check bits of a word are the XOR of
        one table entry per unit: the check bits of that unit alone.
        """
        units = np.asarray(units)
        table = _unit_check_table(self.data_bits, self.data_bits // units.shape[1])
        words = table[0][units[:, 0]]
        for index in range(1, units.shape[1]):
            words ^= table[index][units[:, index]]
        return words

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(words, data_bits)`` (or a single word) to codewords.

        Codeword layout: the Hamming codeword in position order
        (1-indexed positions 1..n map to columns 0..n-1), followed by
        the overall parity bit in the last column.
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.uint8))
        if data.shape[1] != self.data_bits:
            raise ValueError(
                f"expected {self.data_bits} data bits per word, got {data.shape[1]}"
            )
        words = data.shape[0]
        length = self.data_bits + self.hamming_parity_bits
        codeword = np.zeros((words, length), dtype=np.uint8)
        codeword[:, self._data_positions - 1] = data
        # Parity bit 2**i makes the XOR of its covered positions zero.
        for i, pos in enumerate(self._parity_positions):
            covered = codeword & self._coverage[i]
            parity = covered.sum(axis=1) & 1
            codeword[:, pos - 1] = parity
            # The parity position itself is covered; setting it fixes the
            # XOR because it was zero before.
        overall = codeword.sum(axis=1) & 1
        return np.concatenate([codeword, overall[:, None]], axis=1)

    def decode(self, codewords: np.ndarray) -> DecodeResult:
        """Decode ``(words, codeword_bits)`` (or one codeword)."""
        codewords = np.atleast_2d(np.asarray(codewords, dtype=np.uint8))
        if codewords.shape[1] != self.codeword_bits:
            raise ValueError(
                f"expected {self.codeword_bits} bits per codeword, "
                f"got {codewords.shape[1]}"
            )
        hamming = codewords[:, :-1].copy()
        overall_stored = codewords[:, -1].astype(np.int64)

        syndrome = np.zeros(codewords.shape[0], dtype=np.int64)
        for i in range(self.hamming_parity_bits):
            parity = (hamming & self._coverage[i]).sum(axis=1) & 1
            syndrome |= parity.astype(np.int64) << i
        overall_calc = (hamming.sum(axis=1).astype(np.int64) + overall_stored) & 1

        status = np.full(codewords.shape[0], DecodeStatus.OK, dtype=object)
        corrected = np.full(codewords.shape[0], -1, dtype=np.int64)

        length = self.data_bits + self.hamming_parity_bits
        # Single error somewhere in the Hamming part: syndrome names it
        # and the overall parity disagrees.
        single = (syndrome != 0) & (overall_calc == 1) & (syndrome <= length)
        # Single error on the overall parity bit itself.
        overall_err = (syndrome == 0) & (overall_calc == 1)
        # Double error: syndrome fires but overall parity balances — or
        # the syndrome points past the end of the codeword.
        double = ((syndrome != 0) & (overall_calc == 0)) | (syndrome > length)

        for row in np.flatnonzero(single):
            position = int(syndrome[row])
            hamming[row, position - 1] ^= 1
            status[row] = DecodeStatus.CORRECTED
            corrected[row] = position - 1
        for row in np.flatnonzero(overall_err):
            status[row] = DecodeStatus.CORRECTED
            corrected[row] = self.codeword_bits - 1
        for row in np.flatnonzero(double):
            status[row] = DecodeStatus.DETECTED

        data = hamming[:, self._data_positions - 1]
        return DecodeResult(data=data, status=status, corrected_position=corrected)

    def decode_check_bits(self, data: np.ndarray, check: np.ndarray) -> DecodeResult:
        """Decode words received in wire order: data bits, then check bits.

        ``data`` is ``(words, data_bits)`` 0/1 and ``check`` the
        ``(words, parity_bits)`` check bits received with it, in the
        order :meth:`check_bits` returns them.  The received check bits
        XOR those of the received data give the Hamming syndrome and the
        overall parity at once, so no codeword is assembled; the result
        equals :meth:`decode` on the codewords these bits form.
        """
        data = np.array(data, dtype=np.uint8)  # a copy: corrected in place
        check = np.asarray(check, dtype=np.uint8)
        if data.shape[1:] != (self.data_bits,) or check.shape != (
            len(data), self.parity_bits
        ):
            raise ValueError(
                f"expected (words, {self.data_bits}) data bits and (words, "
                f"{self.parity_bits}) check bits, got {data.shape} and {check.shape}"
            )
        delta = check ^ self.check_bits(self.pack_data(data))
        weights = 1 << np.arange(self.hamming_parity_bits)
        syndrome = delta[:, :-1] @ weights
        overall = delta.sum(axis=1) & 1
        length = self.data_bits + self.hamming_parity_bits
        # The same three cases as decode(): a single error in the
        # Hamming part, one on the overall parity bit, a double error.
        single = (syndrome != 0) & (overall == 1) & (syndrome <= length)
        overall_err = (syndrome == 0) & (overall == 1)
        double = ((syndrome != 0) & (overall == 0)) | (syndrome > length)

        rows = np.flatnonzero(single)
        bits = self._data_index[syndrome[rows]]
        in_data = bits >= 0  # an error on a Hamming parity leaves the data
        data[rows[in_data], bits[in_data]] ^= 1
        status = np.array(
            [DecodeStatus.OK, DecodeStatus.CORRECTED, DecodeStatus.DETECTED],
            dtype=object,
        )[(single | overall_err) + 2 * double]
        corrected = np.where(
            single, syndrome - 1, np.where(overall_err, self.codeword_bits - 1, -1)
        )
        return DecodeResult(data=data, status=status, corrected_position=corrected)

    def __repr__(self) -> str:
        return f"HammingSecded(({self.codeword_bits}, {self.data_bits}))"


@lru_cache(maxsize=None)
def _unit_check_table(data_bits: int, unit_bits: int) -> np.ndarray:
    """``(data_bits // unit_bits, 2**unit_bits)`` uint32 check words.

    Entry ``[i, v]`` holds the check bits (bit ``j`` = check bit ``j``)
    of the data whose unit ``i`` is ``v`` and whose other bits are 0.
    Built from the check words of the single data bits: each table
    column doubles by XOR-ing in the next bit of the unit.
    """
    if unit_bits < 1 or unit_bits > 8 or data_bits % unit_bits:
        raise ValueError(
            f"cannot cut {data_bits} data bits into units of {unit_bits} bits"
        )
    code = HammingSecded(data_bits)
    single = code.check_bits(code.pack_data(np.eye(data_bits, dtype=np.uint8)))
    weights = np.uint32(1) << np.arange(code.parity_bits, dtype=np.uint32)
    basis = (single.astype(np.uint32) * weights).sum(axis=1, dtype=np.uint32)
    basis = basis.reshape(-1, unit_bits)
    table = np.zeros((len(basis), 1), dtype=np.uint32)
    for bit in range(unit_bits):
        table = np.concatenate([table, table ^ basis[:, bit : bit + 1]], axis=1)
    return table
