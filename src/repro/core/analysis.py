"""Closed-form DESC transfer costs, vectorized over block streams.

This is "layer 2" of the fidelity stack (see DESIGN.md §4): given the
chunk values of whole streams of cache blocks as numpy arrays, compute
*exactly* the flips and cycles the cycle-accurate link of
:mod:`repro.core.link` would produce — including the parity-sensitive
synchronization-strobe accounting and the cross-block wire history of
last-value skipping.  Property tests in ``tests/core/test_agreement.py``
assert bit-for-bit agreement with the link on random streams.

The system simulator calls this model once per application with the full
block-value stream, which is what makes whole-paper sweeps tractable.
It hands the model the sample's packed words: at 1- and 2-bit chunks a
round is a few bytes of the block, and the model takes its tallies from
popcounts over them; wider chunks are cut from the words into values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import ChunkLayout
from repro.core.protocol import TransferCost
from repro.kernels import pipeline
from repro.kernels.batched import popcount, shifted_prev, strobe_flips

__all__ = ["StreamCost", "DescCostModel"]

_POLICIES = ("none", "zero", "last-value")

#: Chunk widths whose tallies come from popcounts over the packed bits
#: of each round; wider chunks are tallied from int64 chunk values.
_POPCOUNT_CHUNK_BITS = (1, 2)


@dataclass(frozen=True)
class StreamCost:
    """Per-block transfer costs for a stream of blocks.

    Each attribute is an array with one entry per block.
    ``latency_cycles`` is the *critical-path* delivery latency of the
    block: for the fixed-beat encoders it equals ``cycles``; for DESC it
    is the average-value-based latency the paper uses for hit time and
    bank throughput (Section 5.3 — "the average value transferred by
    the zero skipped DESC is approximately five.  This value determines
    the throughput of each bank"), while ``cycles`` is the full time
    window that bounds the synchronization strobe and wire occupancy.
    """

    data_flips: np.ndarray
    overhead_flips: np.ndarray
    sync_flips: np.ndarray
    cycles: np.ndarray
    latency_cycles: np.ndarray | None = None

    @property
    def delivery_latency(self) -> np.ndarray:
        """Critical-path latency per block (defaults to ``cycles``)."""
        return self.latency_cycles if self.latency_cycles is not None else self.cycles

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the stream."""
        return len(self.cycles)

    @property
    def total_flips_per_block(self) -> np.ndarray:
        """All wire transitions charged to each block."""
        return self.data_flips + self.overhead_flips + self.sync_flips

    def total(self) -> TransferCost:
        """Aggregate cost over the whole stream."""
        return TransferCost(
            data_flips=int(self.data_flips.sum()),
            overhead_flips=int(self.overhead_flips.sum()),
            sync_flips=int(self.sync_flips.sum()),
            cycles=int(self.cycles.sum()),
        )

    def block(self, index: int) -> TransferCost:
        """Cost of a single block in the stream."""
        return TransferCost(
            data_flips=int(self.data_flips[index]),
            overhead_flips=int(self.overhead_flips[index]),
            sync_flips=int(self.sync_flips[index]),
            cycles=int(self.cycles[index]),
        )


class DescCostModel:
    """Computes DESC wire activity without simulating individual cycles.

    The model is stateful in exactly the ways the hardware is: the
    last-value history of every wire and the busy-cycle parity of the
    synchronization strobe persist across calls, so feeding a stream in
    one call or block-by-block yields identical results.
    """

    #: Skip-policy names this class accepts; subclasses may extend.
    POLICY_NAMES: tuple[str, ...] = _POLICIES

    def __init__(self, layout: ChunkLayout | None = None, skip_policy: str = "zero") -> None:
        if skip_policy not in self.POLICY_NAMES:
            raise ValueError(
                f"unknown skip policy {skip_policy!r}; "
                f"expected one of {self.POLICY_NAMES}"
            )
        self._layout = layout if layout is not None else ChunkLayout()
        self._skip_policy = skip_policy
        self._last = np.zeros(self._layout.num_wires, dtype=np.int64)
        self._busy_cycles = 0

    @property
    def layout(self) -> ChunkLayout:
        """Chunk/wire geometry assumed by the model."""
        return self._layout

    @property
    def skip_policy(self) -> str:
        """Name of the value-skipping policy ("none", "zero", "last-value")."""
        return self._skip_policy

    def reset(self) -> None:
        """Clear wire history and strobe parity (fresh link)."""
        self._last[:] = 0
        self._busy_cycles = 0

    def block_cost(self, chunks: np.ndarray) -> TransferCost:
        """Cost of transferring one block (advances internal history)."""
        stream = self.stream_cost(np.asarray(chunks, dtype=np.int64)[None, :])
        return stream.block(0)

    def stream_cost(self, blocks) -> StreamCost:
        """Costs for a ``(num_blocks, num_chunks)`` stream of chunk
        values, or for the same blocks as ``pipeline.PackedBits``.

        Packed 1- and 2-bit chunks are tallied from popcounts over each
        round's bits when a round fills whole bytes; other packed
        streams are cut into chunk values first.
        """
        layout = self._layout
        if isinstance(blocks, pipeline.PackedBits):
            if blocks.block_bits != layout.block_bits:
                raise ValueError(
                    f"expected packed blocks of {layout.block_bits} bits, "
                    f"got {blocks.block_bits}"
                )
            unit = _round_unit_bits(layout)
            if unit and blocks.num_blocks and type(self) is DescCostModel:
                arrays, last = _packed_arrays(
                    blocks, layout, unit, self._skip_policy, self._last
                )
                return self._finish(arrays, blocks.num_blocks, last)
            blocks = blocks.chunks(layout.chunk_bits)
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.ndim != 2 or blocks.shape[1] != layout.num_chunks:
            raise ValueError(
                f"expected blocks of shape (n, {layout.num_chunks}), "
                f"got {blocks.shape}"
            )
        num_blocks = blocks.shape[0]
        rounds = layout.num_rounds
        wires = layout.num_wires
        if num_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return StreamCost(empty, empty, empty, empty)

        # values[t, w]: chunk sent on wire w in global round t (time order).
        values = blocks.reshape(num_blocks * rounds, wires)
        if type(self) is DescCostModel:
            # Stock fire schedules go through the pipeline kernels (one
            # C call over the whole stream when native is loaded, the
            # shared NumPy twin otherwise — byte-identical either way).
            arrays = pipeline.desc_stream_arrays(
                values, num_blocks, rounds, wires, self._skip_policy, self._last
            )
        else:
            # Subclasses may override _fire_schedule; honour it.
            skipped, fire = self._fire_schedule(values)
            arrays = pipeline.schedule_arrays(skipped, fire, num_blocks, rounds)
        # Wire history after the stream: the last round's delivered values.
        return self._finish(arrays, num_blocks, values[-1].copy())

    def _finish(self, arrays, num_blocks: int, last: np.ndarray) -> StreamCost:
        """Latency, strobe flips and wire history from the integer tallies.

        Float math stays here, in one formulation, so every tally path
        (native, NumPy, packed popcounts) gives the same latency bits.
        """
        data_flips, overhead_flips, cycles, fire_sum, per_round_data = arrays
        rounds = self._layout.num_rounds

        # Critical-path latency: the mean fire cycle of the round's
        # transmitted chunks (the paper's average-value latency model)
        # plus the strobe overhead — one cycle for basic DESC's final
        # toggle, two when a closing skip toggle is needed.
        counts = np.maximum(per_round_data, 1)
        mean_fire = fire_sum.astype(np.float64) / counts
        extra = 1.0 + (self._skip_policy != "none")
        round_latency = np.where(per_round_data > 0, mean_fire + extra, 2.0)
        latency = round_latency.reshape(num_blocks, rounds).sum(axis=1)

        # Sync strobe: one flip per two busy cycles, with parity carried
        # across blocks (and across calls) exactly as the link does.
        sync_flips, self._busy_cycles = strobe_flips(cycles, self._busy_cycles)

        self._last = last
        return StreamCost(
            data_flips=data_flips.astype(np.int64),
            overhead_flips=overhead_flips.astype(np.int64),
            sync_flips=sync_flips.astype(np.int64),
            cycles=cycles.astype(np.int64),
            latency_cycles=latency,
        )

    def _fire_schedule(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-round skip mask and fire cycles (protocol.fire_cycle, vectorized)."""
        if self._skip_policy == "none":
            skipped = np.zeros(values.shape, dtype=bool)
            return skipped, values
        if self._skip_policy == "zero":
            skipped = values == 0
            return skipped, values
        # Last-value skipping: the skip value of wire w in round t is the
        # value delivered on w in round t-1 (the policy observes skipped
        # chunks too, and they deliver the skip value itself).
        prev = shifted_prev(values, self._last)
        skipped = values == prev
        fire = values + (values < prev).astype(np.int64)
        return skipped, fire


# ----------------------------------------------------------------------
# Tallies from packed bits (1- and 2-bit chunks)
# ----------------------------------------------------------------------


def _round_unit_bits(layout: ChunkLayout) -> int | None:
    """Width of the unsigned words a round's bits are read as, or
    ``None`` when the popcount tallies do not apply: chunks wider than
    2 bits, or rounds that do not fill whole bytes."""
    if layout.chunk_bits not in _POPCOUNT_CHUNK_BITS:
        return None
    round_bits = layout.num_wires * layout.chunk_bits
    return next((u for u in (64, 32, 16, 8) if round_bits % u == 0), None)


def _lane_of(values: np.ndarray, chunk_bits: int, dtype: np.dtype) -> np.ndarray:
    """The packed lane of one round's chunk values (wire 0 lowest)."""
    bits = (values[:, None] >> np.arange(chunk_bits)) & 1
    packed = np.packbits(bits.astype(np.uint8).reshape(-1), bitorder="little")
    return packed.view(dtype)


def _values_of(lane: np.ndarray, chunk_bits: int) -> np.ndarray:
    """The int64 chunk values of one packed round (wire 0 first)."""
    bits = np.unpackbits(lane.view(np.uint8), bitorder="little")
    weights = 1 << np.arange(chunk_bits, dtype=np.int64)
    return bits.reshape(-1, chunk_bits).astype(np.int64) @ weights


def _across(words: np.ndarray, op) -> np.ndarray:
    """Combine each round's words (the columns of ``words``) with
    ``op``: a loop over the few columns runs faster than a reduction
    along a short axis."""
    out = words[:, 0]
    for column in range(1, words.shape[1]):
        out = op(out, words[:, column])
    return out


def _packed_arrays(
    packed: "pipeline.PackedBits",
    layout: ChunkLayout,
    unit: int,
    policy: str,
    last: np.ndarray,
):
    """``desc_stream_arrays``' five tallies from popcounts over packed
    rounds, and the wire history after the stream.

    Round ``t`` is the ``wires * chunk_bits`` contiguous bits of its
    block, read as ``unit``-bit words.  Each plane ``k`` holds bit ``k``
    of every chunk, moved down to the chunk's lowest bit, so a chunk
    is one bit position in every plane:

    * zero skipping sends the non-zero chunks, each firing at its value;
    * last-value skipping sends the chunks that differ from the wire's
      previous round, each firing at its value plus one when it is
      below the previous value (the comparison and the add run plane by
      plane, most significant plane first for the comparison);
    * ``none`` sends every chunk at its value.

    A round's fire sum is ``sum_k 2**k * popcount(fire plane k)``; its
    last fire is the largest fired value, found plane by plane.
    """
    c = layout.chunk_bits
    wires = layout.num_wires
    rounds = layout.num_rounds
    n = packed.num_blocks
    dtype = np.dtype(f"<u{unit // 8}")
    data = packed.words.view(np.uint8)[: n * layout.block_bits // 8]
    lanes = data.view(dtype).reshape(n * rounds, -1)
    low = dtype.type(sum(1 << bit for bit in range(0, unit, c)))

    def planes(x: np.ndarray) -> list[np.ndarray]:
        return [(x >> dtype.type(k)) & low for k in range(c)]

    value = planes(lanes)
    if policy == "last-value":
        prev = planes(shifted_prev(lanes, _lane_of(last, c, dtype)))
        sent = np.zeros_like(lanes)
        for v, p in zip(value, prev, strict=True):
            sent |= v ^ p
        below = np.zeros_like(lanes)
        equal = np.full_like(lanes, low)
        for v, p in zip(reversed(value), reversed(prev), strict=True):
            below |= equal & ~v & p
            equal &= ~(v ^ p)
        fire = []
        carry = below
        for v in value:
            fire.append((v ^ carry) & sent)
            carry = v & carry
    else:
        fire = value
        sent = None
        if policy == "zero":
            sent = np.zeros_like(lanes)
            for v in value:
                sent |= v

    if sent is None:
        per_round_data = np.full(len(lanes), wires, dtype=np.int64)
    else:
        per_round_data = _across(popcount(sent), np.add)
    fire_sum = np.zeros(len(lanes), dtype=np.int64)
    for k, plane in enumerate(fire):
        fire_sum += _across(popcount(plane), np.add) << k
    top = np.zeros(len(lanes), dtype=np.int64)
    candidates = np.full_like(lanes, low)
    for k in reversed(range(c)):
        hit = fire[k] & candidates
        found = _across(hit, np.bitwise_or) != 0
        top += found.astype(np.int64) << k
        candidates = np.where(found[:, None], hit, candidates)

    any_skipped = per_round_data < wires
    duration = np.where(per_round_data == 0, 2, top + 1 + any_skipped)

    def per_block(per_round: np.ndarray) -> np.ndarray:
        return per_round.reshape(n, rounds).sum(axis=1).astype(np.int64)

    arrays = (
        per_block(per_round_data),
        per_block(1 + any_skipped.astype(np.int64)),
        per_block(duration),
        fire_sum,
        per_round_data,
    )
    return arrays, _values_of(lanes[-1], c)
