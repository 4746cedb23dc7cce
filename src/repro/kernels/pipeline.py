"""One-call-per-epoch pipeline kernels: native entry points + NumPy twins.

The per-epoch hot loop — encoder chunking, toggle/level-transition
detection, trace generation, and the DESC cost tally — historically
crossed the Python↔C boundary once per NumPy *primitive* (a gather
here, a ``maximum.accumulate`` there).  This module packs each epoch
into contiguous buffers and crosses the boundary **once per stage**,
through the kernels of ``pipeline_native.c`` (compiled into a shared
library by :mod:`repro.kernels.native`).

Every native entry point ``X_native`` has a NumPy twin ``X_numpy`` with
the *identical* signature (lint R003 pins the pairs) and a dispatcher
``X`` that prefers native and falls back — on ``REPRO_NATIVE=0``, on a
missing compiler, or on unsupported geometry (return value ``None``
from the native variant).  The fallback never changes results: the
native kernels are integer-only and byte-identical to the NumPy
formulations; all float math (latency means, energy) stays in NumPy on
both tiers.

Buffer-packing layout (shared with the C side):

* bit matrices ``(n, block_bits)`` flatten row-major and pack little-
  endian — global bit ``g`` lives at bit ``g % 64`` of uint64 word
  ``g // 64`` — so beat ``t`` of the stream occupies bits
  ``[t*W, (t+1)*W)`` and segment ``j`` the ``s`` bits at ``t*W + j*s``;
* chunk streams stay ``(num_blocks * rounds, wires)`` int64, the same
  time-major view :class:`~repro.core.analysis.DescCostModel` uses;
* the counter-RNG trace assembly passes every float-derived constant
  (thresholds, CDF tables) in as integers, computed once in Python, so
  both tiers compare the same uint64 draws.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.kernels import native as _native

__all__ = [
    "pipeline_available",
    "pipeline_error",
    "PackedBits",
    "desc_stream_arrays",
    "desc_stream_arrays_native",
    "desc_stream_arrays_numpy",
    "schedule_arrays",
    "binary_flips",
    "binary_flips_native",
    "binary_flips_numpy",
    "dzc_flips",
    "dzc_flips_native",
    "dzc_flips_numpy",
    "bus_invert_flips",
    "bus_invert_flips_native",
    "bus_invert_flips_numpy",
    "block_assemble",
    "block_assemble_native",
    "block_assemble_numpy",
    "trace_assemble",
    "trace_assemble_native",
    "trace_assemble_numpy",
    "group_rank",
    "group_rank_native",
    "group_rank_numpy",
]

_I64P = ctypes.POINTER(ctypes.c_int64)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_F64P = ctypes.POINTER(ctypes.c_double)

_SKIP_POLICY_CODES = {"none": 0, "zero": 1, "last-value": 2}
_BUS_INVERT_MODES = {None: 0, "sparse": 1, "encoded": 2}

#: Dense group_rank allocates a counting array over the label range;
#: beyond this multiple of the input size the sort-based NumPy kernel
#: is the better trade.
_GROUP_RANK_RANGE_SLACK = 4
_GROUP_RANK_RANGE_FLOOR = 1 << 16


def _i64p(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P)


def _u64p(arr: np.ndarray):
    return arr.ctypes.data_as(_U64P)


def _u8p(arr: np.ndarray):
    return arr.ctypes.data_as(_U8P)


def _f64p(arr: np.ndarray):
    return arr.ctypes.data_as(_F64P)


def _prototypes(lib: ctypes.CDLL) -> None:
    c_i64 = ctypes.c_int64
    c_u64 = ctypes.c_uint64
    lib.desc_stream_cost.restype = c_i64
    lib.desc_stream_cost.argtypes = [
        _I64P, c_i64, c_i64, c_i64, c_i64, _I64P,
        _I64P, _I64P, _I64P, _I64P, _I64P,
    ]
    lib.binary_stream_cost.restype = c_i64
    lib.binary_stream_cost.argtypes = [_U64P, c_i64, c_i64, c_i64, _I64P]
    lib.dzc_stream_cost.restype = c_i64
    lib.dzc_stream_cost.argtypes = [
        _U64P, c_i64, c_i64, c_i64, c_i64, _I64P, _I64P,
    ]
    lib.bus_invert_stream_cost.restype = c_i64
    lib.bus_invert_stream_cost.argtypes = [
        _U64P, c_i64, c_i64, c_i64, c_i64, c_i64, _I64P, _I64P,
    ]
    lib.block_assemble.restype = c_i64
    lib.block_assemble.argtypes = [
        _I64P, _F64P, _F64P, _F64P, _F64P, _F64P,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double,
        c_i64, c_i64, c_i64, c_i64, _I64P, _U8P, _U64P,
    ]
    lib.trace_assemble.restype = c_i64
    lib.trace_assemble.argtypes = [
        c_u64, c_i64, c_i64, c_u64, c_u64, c_u64, c_u64,
        _U64P, c_i64, _U64P, c_i64,
        c_i64, c_i64, c_i64, c_i64, c_i64,
        _I64P, _U8P, _I64P, _I64P,
    ]
    lib.group_rank_dense.restype = c_i64
    lib.group_rank_dense.argtypes = [_I64P, c_i64, c_i64, c_i64, _I64P]


def _lib() -> ctypes.CDLL | None:
    """The native library, or ``None`` (fall back to NumPy)."""
    lib = _native.load_native_kernel()
    if lib is None:
        return None
    if not getattr(lib, "_repro_pipeline_ready", False):
        _prototypes(lib)
        lib._repro_pipeline_ready = True
    return lib


def pipeline_available() -> bool:
    """Whether the native pipeline fast path is active."""
    return _lib() is not None


def pipeline_error() -> str | None:
    """Why the native pipeline is unavailable, or ``None`` if it is."""
    return _native.native_error()


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n, block_bits)`` 0/1 matrix into the shared word layout.

    Row-major flatten, little-endian bit order, zero-padded to a whole
    number of uint64 words (the C side never reads past the padding).
    """
    flat = np.ascontiguousarray(bits, dtype=np.uint8).reshape(-1)
    packed = np.packbits(flat, bitorder="little")
    remainder = packed.size % 8
    if remainder:
        packed = np.concatenate(
            [packed, np.zeros(8 - remainder, dtype=np.uint8)]
        )
    return packed.view("<u8")


class PackedBits:
    """A validated bit matrix carried in the packed word layout.

    The per-epoch bit stream is packed **once** (by ``block_assemble``
    or :meth:`from_bits`) and every consumer reads the same words: the
    encoder kernels, the DESC cost model (popcounts over each round's
    bits at 1- and 2-bit chunks, :meth:`chunks` at wider ones), the
    chunk-value statistics and the SECDED layouts, which take their
    check bits and interleaves from the bytes.  The unpacked view,
    :attr:`bits`, is materialized lazily, and only the NumPy kernel
    twins and ``secded_extend_stream`` (SECDED baselines other than
    binary) read it.
    """

    def __init__(
        self,
        words: np.ndarray,
        num_blocks: int,
        block_bits: int,
        bits: np.ndarray | None = None,
    ) -> None:
        self.words = words
        self.num_blocks = int(num_blocks)
        self.block_bits = int(block_bits)
        self._bits = bits

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "PackedBits":
        """Pack an already-validated ``(n, block_bits)`` 0/1 matrix."""
        return cls(_pack_bits(bits), bits.shape[0], bits.shape[1], bits)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_blocks, self.block_bits)

    @property
    def bits(self) -> np.ndarray:
        """The unpacked ``(n, block_bits)`` uint8 matrix (lazy)."""
        if self._bits is None:
            total = self.num_blocks * self.block_bits
            flat = np.unpackbits(
                self.words.view(np.uint8), count=total, bitorder="little"
            )
            self._bits = flat.reshape(self.num_blocks, self.block_bits)
        return self._bits

    def chunks(self, chunk_bits: int, dtype=np.int64) -> np.ndarray:
        """``(n, block_bits // chunk_bits)`` chunk values, int64 unless
        ``dtype`` names a narrower type that holds them.

        Chunk 0 of a block holds its least-significant bits, as in
        :func:`repro.util.bitops.bit_matrix_to_chunks`, but nothing is
        unpacked: 1-, 2- and 4-bit chunks are shifts of the byte view,
        8-, 16- and 32-bit chunks are little-endian integer views.
        """
        if chunk_bits not in _PACKED_CHUNK_BITS or self.block_bits % chunk_bits:
            raise ValueError(
                f"cannot cut {self.block_bits}-bit packed blocks into "
                f"{chunk_bits}-bit chunks; chunk widths are "
                f"{_PACKED_CHUNK_BITS}"
            )
        total = self.num_blocks * self.block_bits
        data = self.words.view(np.uint8)[: -(-total // 8)]
        if chunk_bits >= 8:
            values = data.view(f"<u{chunk_bits // 8}").astype(dtype, copy=False)
        else:
            # One whole-stream pass per chunk of a byte, written straight
            # into the output type: a broadcast over the few chunks of
            # each byte, or a uint8 pass widened afterwards, runs slower.
            values = np.empty((data.size, 8 // chunk_bits), dtype=dtype)
            mask = np.uint8((1 << chunk_bits) - 1)
            for j in range(values.shape[1]):
                np.bitwise_and(
                    data >> np.uint8(j * chunk_bits), mask,
                    out=values[:, j], casting="unsafe",
                )
            # Blocks need not end on a byte: drop the padding chunks.
            values = values.reshape(-1)[: total // chunk_bits]
        return values.reshape(self.num_blocks, -1)


#: Chunk widths :meth:`PackedBits.chunks` cuts straight from the words.
_PACKED_CHUNK_BITS = (1, 2, 4, 8, 16, 32)


def _payload_words(payload) -> np.ndarray:
    """The packed words of a bit matrix or an already-packed payload."""
    if isinstance(payload, PackedBits):
        return payload.words
    return _pack_bits(payload)


def _payload_bits(payload) -> np.ndarray:
    """The unpacked bit matrix of either payload form."""
    if isinstance(payload, PackedBits):
        return payload.bits
    return payload


# ----------------------------------------------------------------------
# DESC stream cost (integer tallies; float latency stays in the model)
# ----------------------------------------------------------------------


def schedule_arrays(
    skipped: np.ndarray, fire: np.ndarray, num_blocks: int, rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer cost tallies of a DESC skip/fire schedule.

    Shared by the NumPy twin below and by
    :meth:`~repro.core.analysis.DescCostModel.stream_cost`'s fallback
    for subclassed fire schedules, so there is exactly one vectorized
    formulation of the tallies.  Returns per-block ``(data_flips,
    overhead_flips, cycles)`` and per-round ``(fire_sum, data_count)``,
    all int64.
    """
    unskipped = ~skipped
    masked_fire = np.where(unskipped, fire, -1)
    last_fire = masked_fire.max(axis=1)
    any_skipped = skipped.any(axis=1)
    duration = np.where(
        last_fire < 0,
        2,
        last_fire + 1 + any_skipped.astype(np.int64),
    )
    per_round_data = unskipped.sum(axis=1)
    fire_sum = np.where(unskipped, fire, 0).sum(axis=1)

    def per_block(per_round: np.ndarray) -> np.ndarray:
        return per_round.reshape(num_blocks, rounds).sum(axis=1).astype(np.int64)

    return (
        per_block(per_round_data),
        per_block(1 + any_skipped.astype(np.int64)),
        per_block(duration),
        fire_sum.astype(np.int64),
        per_round_data.astype(np.int64),
    )


def desc_stream_arrays_native(
    values: np.ndarray,
    num_blocks: int,
    rounds: int,
    wires: int,
    skip_policy: str,
    last: np.ndarray,
):
    """One-call DESC tally over the whole chunk stream; ``None`` = fall back."""
    lib = _lib()
    if lib is None:
        return None
    code = _SKIP_POLICY_CODES.get(skip_policy)
    if code is None:
        return None
    values = np.ascontiguousarray(values, dtype=np.int64)
    last = np.ascontiguousarray(last, dtype=np.int64)
    total_rounds = num_blocks * rounds
    data_flips = np.empty(num_blocks, dtype=np.int64)
    overhead_flips = np.empty(num_blocks, dtype=np.int64)
    cycles = np.empty(num_blocks, dtype=np.int64)
    fire_sum = np.empty(total_rounds, dtype=np.int64)
    data_count = np.empty(total_rounds, dtype=np.int64)
    rc = lib.desc_stream_cost(
        _i64p(values), num_blocks, rounds, wires, code, _i64p(last),
        _i64p(data_flips), _i64p(overhead_flips), _i64p(cycles),
        _i64p(fire_sum), _i64p(data_count),
    )
    if rc != 0:
        return None
    return data_flips, overhead_flips, cycles, fire_sum, data_count


def desc_stream_arrays_numpy(
    values: np.ndarray,
    num_blocks: int,
    rounds: int,
    wires: int,
    skip_policy: str,
    last: np.ndarray,
):
    """Vectorized twin of :func:`desc_stream_arrays_native`."""
    from repro.kernels.batched import shifted_prev

    if skip_policy == "none":
        skipped = np.zeros(values.shape, dtype=bool)
        fire = values
    elif skip_policy == "zero":
        skipped = values == 0
        fire = values
    elif skip_policy == "last-value":
        prev = shifted_prev(values, last)
        skipped = values == prev
        fire = values + (values < prev).astype(np.int64)
    else:
        return None
    return schedule_arrays(skipped, fire, num_blocks, rounds)


def desc_stream_arrays(
    values: np.ndarray,
    num_blocks: int,
    rounds: int,
    wires: int,
    skip_policy: str,
    last: np.ndarray,
):
    """DESC integer tallies: native when available, NumPy otherwise."""
    out = desc_stream_arrays_native(
        values, num_blocks, rounds, wires, skip_policy, last
    )
    if out is not None:
        return out
    return desc_stream_arrays_numpy(
        values, num_blocks, rounds, wires, skip_policy, last
    )


# ----------------------------------------------------------------------
# Baseline encoders over packed bit streams
# ----------------------------------------------------------------------


def binary_flips_native(bits, data_wires: int):
    """Per-block (data, overhead) flips of the plain binary bus."""
    lib = _lib()
    if lib is None:
        return None
    num_blocks, block_bits = bits.shape
    beats = block_bits // data_wires
    words = _payload_words(bits)
    data_flips = np.zeros(num_blocks, dtype=np.int64)
    rc = lib.binary_stream_cost(
        _u64p(words), num_blocks, beats, data_wires, _i64p(data_flips)
    )
    if rc != 0:
        return None
    return data_flips, np.zeros(num_blocks, dtype=np.int64)


def binary_flips_numpy(bits, data_wires: int):
    """Vectorized twin of :func:`binary_flips_native`."""
    from repro.encoding.binary import BinaryEncoder

    bits = _payload_bits(bits)
    encoder = BinaryEncoder(bits.shape[1], data_wires)
    return encoder._flips_arrays(bits)


def binary_flips(bits, data_wires: int):
    """Binary-bus flips: native when available, NumPy otherwise."""
    out = binary_flips_native(bits, data_wires)
    if out is not None:
        return out
    return binary_flips_numpy(bits, data_wires)


def dzc_flips_native(bits, data_wires: int, segment_bits: int):
    """Per-block (data, overhead) flips of dynamic zero compression."""
    lib = _lib()
    if lib is None or segment_bits > 64:
        return None
    num_blocks, block_bits = bits.shape
    beats = block_bits // data_wires
    words = _payload_words(bits)
    data_flips = np.zeros(num_blocks, dtype=np.int64)
    overhead_flips = np.zeros(num_blocks, dtype=np.int64)
    rc = lib.dzc_stream_cost(
        _u64p(words), num_blocks, beats, data_wires, segment_bits,
        _i64p(data_flips), _i64p(overhead_flips),
    )
    if rc != 0:
        return None
    return data_flips, overhead_flips


def dzc_flips_numpy(bits, data_wires: int, segment_bits: int):
    """Vectorized twin of :func:`dzc_flips_native`."""
    from repro.encoding.zero_compression import ZeroCompressionEncoder

    bits = _payload_bits(bits)
    encoder = ZeroCompressionEncoder(bits.shape[1], data_wires, segment_bits)
    return encoder._flips_arrays(bits)


def dzc_flips(bits, data_wires: int, segment_bits: int):
    """DZC flips: native when available, NumPy otherwise."""
    out = dzc_flips_native(bits, data_wires, segment_bits)
    if out is not None:
        return out
    return dzc_flips_numpy(bits, data_wires, segment_bits)


def bus_invert_flips_native(
    bits,
    data_wires: int,
    segment_bits: int,
    zero_skipping: str | None,
):
    """Per-block (data, overhead) flips of segmented bus-invert coding."""
    lib = _lib()
    if lib is None or segment_bits > 64:
        return None
    mode = _BUS_INVERT_MODES.get(zero_skipping)
    if mode is None:
        return None
    num_blocks, block_bits = bits.shape
    beats = block_bits // data_wires
    words = _payload_words(bits)
    data_flips = np.zeros(num_blocks, dtype=np.int64)
    overhead_flips = np.zeros(num_blocks, dtype=np.int64)
    rc = lib.bus_invert_stream_cost(
        _u64p(words), num_blocks, beats, data_wires, segment_bits, mode,
        _i64p(data_flips), _i64p(overhead_flips),
    )
    if rc != 0:
        return None
    return data_flips, overhead_flips


def bus_invert_flips_numpy(
    bits,
    data_wires: int,
    segment_bits: int,
    zero_skipping: str | None,
):
    """Vectorized twin of :func:`bus_invert_flips_native`."""
    from repro.encoding.bus_invert import BusInvertEncoder

    bits = _payload_bits(bits)
    encoder = BusInvertEncoder(
        bits.shape[1], data_wires, segment_bits, zero_skipping=zero_skipping
    )
    return encoder._flips_arrays(bits)


def bus_invert_flips(
    bits,
    data_wires: int,
    segment_bits: int,
    zero_skipping: str | None,
):
    """Bus-invert flips: native when available, NumPy otherwise."""
    out = bus_invert_flips_native(bits, data_wires, segment_bits, zero_skipping)
    if out is not None:
        return out
    return bus_invert_flips_numpy(bits, data_wires, segment_bits, zero_skipping)


# ----------------------------------------------------------------------
# Workload assembly
# ----------------------------------------------------------------------


def block_assemble_native(
    fresh: np.ndarray,
    null_draw: np.ndarray,
    zero_word_draw: np.ndarray,
    zero_chunk_draw: np.ndarray,
    word_copy_draw: np.ndarray,
    repeat_draw: np.ndarray,
    probabilities: tuple[float, float, float, float, float],
    chunk_bits: int,
    with_bits: bool,
    with_packed: bool,
):
    """Whole-sample block assembly in one call; ``None`` = fall back.

    Takes the generator's raw uniform draws plus their probability
    thresholds (the mask compares happen in C — exact float
    comparisons, so byte-identical to NumPy's ``<``) and returns
    ``(chunks, bits, packed)`` where ``bits`` / ``packed`` are ``None``
    unless requested.  The packed words come straight out of the chunk
    values, so the epoch's bit stream is packed exactly once.
    """
    lib = _lib()
    if lib is None:
        return None
    num_blocks, words_per_block = zero_word_draw.shape
    chunks_per_word = fresh.shape[1] // words_per_block
    if (
        fresh.shape != (num_blocks, words_per_block * chunks_per_word)
        or repeat_draw.shape != fresh.shape
        or zero_chunk_draw.shape != fresh.shape
        or word_copy_draw.shape != zero_word_draw.shape
        or null_draw.shape != (num_blocks,)
    ):
        return None
    fresh = np.ascontiguousarray(fresh, dtype=np.int64)
    nd = np.ascontiguousarray(null_draw, dtype=np.float64)
    zw = np.ascontiguousarray(zero_word_draw, dtype=np.float64)
    zc = np.ascontiguousarray(zero_chunk_draw, dtype=np.float64)
    wc = np.ascontiguousarray(word_copy_draw, dtype=np.float64)
    rp = np.ascontiguousarray(repeat_draw, dtype=np.float64)
    p_null, p_zero_word, p_zero_chunk, p_word_repeat, p_repeat_chunk = (
        float(p) for p in probabilities
    )
    chunks = np.empty_like(fresh)
    block_bits = fresh.shape[1] * chunk_bits
    if with_bits:
        bits = np.empty((num_blocks, block_bits), dtype=np.uint8)
        bits_ptr = _u8p(bits)
    else:
        bits = None
        bits_ptr = None
    if with_packed:
        num_words = (num_blocks * block_bits + 63) // 64
        words = np.zeros(num_words, dtype=np.uint64)
        words_ptr = _u64p(words)
    else:
        words = None
        words_ptr = None
    rc = lib.block_assemble(
        _i64p(fresh), _f64p(nd), _f64p(zw), _f64p(zc), _f64p(wc), _f64p(rp),
        p_null, p_zero_word, p_zero_chunk, p_word_repeat, p_repeat_chunk,
        num_blocks, words_per_block, chunks_per_word, chunk_bits,
        _i64p(chunks), bits_ptr, words_ptr,
    )
    if rc != 0:
        return None
    packed = (
        PackedBits(words, num_blocks, block_bits, bits)
        if with_packed
        else None
    )
    return chunks, bits, packed


def block_assemble_numpy(
    fresh: np.ndarray,
    null_draw: np.ndarray,
    zero_word_draw: np.ndarray,
    zero_chunk_draw: np.ndarray,
    word_copy_draw: np.ndarray,
    repeat_draw: np.ndarray,
    probabilities: tuple[float, float, float, float, float],
    chunk_bits: int,
    with_bits: bool,
    with_packed: bool,
):
    """Vectorized twin of :func:`block_assemble_native`."""
    from repro.kernels.batched import forward_fill_take
    from repro.util.bitops import chunk_matrix_to_bits

    num_blocks, words_per_block = zero_word_draw.shape
    chunks_per_word = fresh.shape[1] // words_per_block
    p_null, p_zero_word, p_zero_chunk, p_word_repeat, p_repeat_chunk = (
        float(p) for p in probabilities
    )
    null_block = null_draw < p_null
    zero_word = zero_word_draw < p_zero_word
    zero_chunk = zero_chunk_draw < p_zero_chunk
    zero_word_chunks = np.repeat(zero_word, chunks_per_word, axis=1)
    masked = np.where(
        zero_chunk | zero_word_chunks | null_block[:, None], 0, fresh
    )
    word_copy = word_copy_draw < p_word_repeat
    word_copy[:, 0] = False
    word_copy &= ~null_block[:, None]
    repeat = repeat_draw < p_repeat_chunk
    repeat[0] = False
    repeat[null_block] = False

    word_view = masked.reshape(num_blocks, words_per_block, chunks_per_word)
    chunks = forward_fill_take(word_view, ~word_copy, axis=1).reshape(
        num_blocks, -1
    )
    chunks = forward_fill_take(chunks, ~repeat, axis=0)
    bits = (
        chunk_matrix_to_bits(chunks, chunk_bits)
        if (with_bits or with_packed)
        else None
    )
    packed = PackedBits.from_bits(bits) if with_packed else None
    return chunks, (bits if with_bits else None), packed


def block_assemble(
    fresh: np.ndarray,
    null_draw: np.ndarray,
    zero_word_draw: np.ndarray,
    zero_chunk_draw: np.ndarray,
    word_copy_draw: np.ndarray,
    repeat_draw: np.ndarray,
    probabilities: tuple[float, float, float, float, float],
    chunk_bits: int,
    with_bits: bool,
    with_packed: bool,
):
    """Block assembly: native when available, NumPy otherwise."""
    out = block_assemble_native(
        fresh, null_draw, zero_word_draw, zero_chunk_draw, word_copy_draw,
        repeat_draw, probabilities, chunk_bits, with_bits, with_packed,
    )
    if out is not None:
        return out
    return block_assemble_numpy(
        fresh, null_draw, zero_word_draw, zero_chunk_draw, word_copy_draw,
        repeat_draw, probabilities, chunk_bits, with_bits, with_packed,
    )


# ----------------------------------------------------------------------
# Counter-based memory-trace assembly
# ----------------------------------------------------------------------

_MIX_C1 = 0xFF51AFD7ED558CCD
_MIX_C2 = 0xC4CEB9FE1A85EC53
_STREAM_MULT = 0x9E3779B97F4A7C15
_INDEX_MULT = 0xBF58476D1CE4E5B9


def _mix64(x: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 over a uint64 array (identical to the C side)."""
    x = x ^ (x >> np.uint64(33))
    x = x * np.uint64(_MIX_C1)
    x = x ^ (x >> np.uint64(33))
    x = x * np.uint64(_MIX_C2)
    x = x ^ (x >> np.uint64(33))
    return x


def _stream_draws(base: int, stream: int, n: int) -> np.ndarray:
    """Draws ``0..n-1`` of counter-RNG stream ``stream``."""
    index = np.arange(n, dtype=np.uint64)
    seed = np.uint64(base) ^ np.uint64((stream * _STREAM_MULT) & (2**64 - 1))
    return _mix64(seed ^ (index * np.uint64(_INDEX_MULT)))


def trace_assemble_native(
    base: int,
    n: int,
    threads: int,
    switch_threshold: int,
    stream_threshold: int,
    shared_threshold: int,
    write_threshold: int,
    rank_table: np.ndarray,
    gap_table: np.ndarray,
    private_blocks: int,
    shared_blocks: int,
    stream_blocks: int,
    stream_region: int,
    block_bytes: int,
):
    """One-call trace assembly; ``None`` = fall back to the NumPy twin."""
    lib = _lib()
    if lib is None:
        return None
    rank_table = np.ascontiguousarray(rank_table, dtype=np.uint64)
    gap_table = np.ascontiguousarray(gap_table, dtype=np.uint64)
    addresses = np.empty(n, dtype=np.int64)
    is_write = np.empty(n, dtype=bool)
    thread = np.empty(n, dtype=np.int64)
    gaps = np.empty(n, dtype=np.int64)
    rc = lib.trace_assemble(
        base, n, threads,
        switch_threshold, stream_threshold, shared_threshold, write_threshold,
        _u64p(rank_table), len(rank_table),
        _u64p(gap_table), len(gap_table),
        private_blocks, shared_blocks, stream_blocks, stream_region,
        block_bytes,
        _i64p(addresses), _u8p(is_write.view(np.uint8)), _i64p(thread),
        _i64p(gaps),
    )
    if rc != 0:
        return None
    return addresses, is_write, thread, gaps


def trace_assemble_numpy(
    base: int,
    n: int,
    threads: int,
    switch_threshold: int,
    stream_threshold: int,
    shared_threshold: int,
    write_threshold: int,
    rank_table: np.ndarray,
    gap_table: np.ndarray,
    private_blocks: int,
    shared_blocks: int,
    stream_blocks: int,
    stream_region: int,
    block_bytes: int,
):
    """Vectorized twin of :func:`trace_assemble_native`."""
    switch = _stream_draws(base, 0, n) >= np.uint64(switch_threshold)
    switch[0] = True
    fresh = (_stream_draws(base, 1, n) % np.uint64(threads)).astype(np.int64)
    index = np.arange(n, dtype=np.int64)
    last_switch = np.maximum.accumulate(np.where(switch, index, -1))
    thread = fresh[last_switch]

    kind = _stream_draws(base, 2, n)
    streaming = kind < np.uint64(stream_threshold)
    shared = ~streaming & (kind < np.uint64(shared_threshold))
    rank = np.searchsorted(
        rank_table, _stream_draws(base, 3, n), side="right"
    ).astype(np.int64)
    private_base = (1 + thread) * private_blocks
    block_index = np.where(shared, rank % shared_blocks, private_base + rank)

    stream_refs = np.flatnonzero(streaming)
    if len(stream_refs):
        stream_threads = thread[stream_refs]
        offsets = group_rank(stream_threads) % stream_blocks
        block_index[stream_refs] = (
            stream_region + stream_threads * stream_blocks + offsets
        )

    addresses = block_index * block_bytes
    is_write = _stream_draws(base, 4, n) < np.uint64(write_threshold)
    gaps = np.maximum(
        np.searchsorted(gap_table, _stream_draws(base, 5, n), side="right"), 1
    ).astype(np.int64)
    return addresses, is_write, thread, gaps


def trace_assemble(
    base: int,
    n: int,
    threads: int,
    switch_threshold: int,
    stream_threshold: int,
    shared_threshold: int,
    write_threshold: int,
    rank_table: np.ndarray,
    gap_table: np.ndarray,
    private_blocks: int,
    shared_blocks: int,
    stream_blocks: int,
    stream_region: int,
    block_bytes: int,
):
    """Trace assembly: native when available, NumPy otherwise."""
    out = trace_assemble_native(
        base, n, threads,
        switch_threshold, stream_threshold, shared_threshold, write_threshold,
        rank_table, gap_table, private_blocks, shared_blocks,
        stream_blocks, stream_region, block_bytes,
    )
    if out is not None:
        return out
    return trace_assemble_numpy(
        base, n, threads,
        switch_threshold, stream_threshold, shared_threshold, write_threshold,
        rank_table, gap_table, private_blocks, shared_blocks,
        stream_blocks, stream_region, block_bytes,
    )


# ----------------------------------------------------------------------
# Group rank
# ----------------------------------------------------------------------


def group_rank_native(groups: np.ndarray):
    """Dense-counting group rank; ``None`` when the range is too wide."""
    lib = _lib()
    if lib is None:
        return None
    n = len(groups)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    groups = np.ascontiguousarray(groups, dtype=np.int64)
    gmin = int(groups.min())
    gmax = int(groups.max())
    value_range = gmax - gmin + 1
    if value_range > max(
        _GROUP_RANK_RANGE_SLACK * n, _GROUP_RANK_RANGE_FLOOR
    ):
        return None
    rank = np.empty(n, dtype=np.int64)
    rc = lib.group_rank_dense(_i64p(groups), n, gmin, value_range, _i64p(rank))
    if rc != 0:
        return None
    return rank


def group_rank_numpy(groups: np.ndarray):
    """Sort-based twin of :func:`group_rank_native`."""
    from repro.kernels.batched import group_rank_sorted

    return group_rank_sorted(np.asarray(groups))


def group_rank(groups: np.ndarray):
    """Group rank: dense native when profitable, stable sort otherwise."""
    out = group_rank_native(groups)
    if out is not None:
        return out
    return group_rank_numpy(groups)
