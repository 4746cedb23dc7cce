"""Stock :class:`~repro.encoding.registry.TransferModel` implementations.

Two families cover the paper's whole scheme zoo:

* :class:`DescTransferModel` — the DESC variants (basic, zero-skipped,
  last-value-skipped), optionally wrapped in the chunk-interleaved
  SECDED layout of Figure 9.  Uses the closed-form
  :class:`~repro.core.analysis.DescCostModel`, charges the synthesized
  TX/RX round-trip delay (Figure 17) on every hit, and — under
  last-value skipping — the controller's write-data broadcast
  (Section 5.2).
* :class:`BaselineTransferModel` — every
  :class:`~repro.encoding.base.BusEncoder` baseline (binary, serial,
  bus-invert variants, dynamic zero compression), optionally widened
  per-beat by SECDED parity (the paper's W-S configurations).

Importing this module registers both families with
:func:`repro.encoding.registry.register_transfer_model`; the engine
only ever calls :func:`~repro.encoding.registry.make_transfer_model`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.ecc.hamming import HammingSecded
from repro.ecc.layout import (
    DescEccLayout,
    secded_check_words,
    secded_extend_stream,
)
from repro.encoding.registry import make_encoder, register_transfer_model
from repro.energy.synthesis import DescSynthesisModel
from repro.kernels.batched import popcount, shifted_prev
from repro.kernels.pipeline import PackedBits
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.metrics import TransferStats
from repro.sim.stages import WorkloadSample
from repro.util.validation import require_multiple

__all__ = [
    "BaselineTransferModel",
    "DescTransferModel",
    "DESC_SCHEME_NAMES",
    "BASELINE_SCHEME_NAMES",
]

DESC_SCHEME_NAMES = ("desc", "desc+zero-skip", "desc+last-value-skip")
BASELINE_SCHEME_NAMES = (
    "binary",
    "serial",
    "zero-compression",
    "bus-invert",
    "bus-invert+zero-skip",
    "bus-invert+encoded-zero-skip",
)

# Effective switching activity of the write-data broadcast that
# last-value tracking requires at the cache controller (Section 5.2).
_LAST_VALUE_BROADCAST_ACTIVITY = 0.16

#: Every workload sample holds 512-bit blocks (64-byte cache lines).
_SAMPLE_BLOCK_BITS = 512

#: Widest DESC chunk the transfer models accept.  A chunk's value is
#: its transfer time in cycles, and the packed sample is cut into
#: 1- to 32-bit chunks (``PackedBits.chunks``).
_MAX_DESC_CHUNK_BITS = 32


def _sample_packed(sample: WorkloadSample, exclude_null: bool) -> PackedBits:
    """The sample's packed words, without its null blocks if asked.

    A 512-bit block is exactly 8 words, so the null filter drops whole
    rows of the word matrix.  A sample of nothing but null blocks keeps
    one, so the downstream statistics stay well-defined.
    """
    packed = sample.packed
    if not exclude_null:
        return packed
    words = packed.words.reshape(packed.num_blocks, -1)
    kept = words[words.any(axis=1)]
    if len(kept) == 0:
        kept = words[:1]
    return PackedBits(kept.reshape(-1), len(kept), packed.block_bits)


class DescTransferModel:
    """System-level behaviour of the DESC variants.

    The constructor checks the scheme's geometry against the 512-bit
    sample block by building the layout it will use, so an impossible
    chunk width, wire count or ECC segment raises ``ValueError`` before
    any sample is touched.
    """

    def __init__(self, scheme: SchemeConfig) -> None:
        self.scheme = scheme
        if scheme.chunk_bits > _MAX_DESC_CHUNK_BITS:
            raise ValueError(
                f"DESC chunks are at most {_MAX_DESC_CHUNK_BITS} bits wide, "
                f"got chunk_bits={scheme.chunk_bits}"
            )
        self._ecc: DescEccLayout | None = None
        if scheme.ecc_segment_bits:
            self._ecc = DescEccLayout(
                block_bits=_SAMPLE_BLOCK_BITS,
                segment_bits=scheme.ecc_segment_bits,
                chunk_bits=scheme.chunk_bits,
            )
            self._layout = ChunkLayout(
                block_bits=self._ecc.codeword_bits_total,
                chunk_bits=scheme.chunk_bits,
                num_wires=self._ecc.num_chunks,
            )
        else:
            self._layout = ChunkLayout(
                block_bits=_SAMPLE_BLOCK_BITS,
                chunk_bits=scheme.chunk_bits,
                num_wires=scheme.data_wires,
            )

    def transfer_stats(
        self, sample: WorkloadSample, exclude_null: bool = False
    ) -> TransferStats:
        """Closed-form DESC costs, with the Figure 9 layout under ECC."""
        blocks = _sample_packed(sample, exclude_null)
        if self._ecc is not None:
            blocks = self._ecc.encode_stream(blocks)
        layout = self._layout
        model = DescCostModel(layout, skip_policy=self.scheme.skip_policy)
        stream = model.stream_cost(blocks)
        n = stream.num_blocks
        return TransferStats(
            data_flips=float(stream.data_flips.sum()) / n,
            overhead_flips=float(stream.overhead_flips.sum()) / n,
            sync_flips=float(stream.sync_flips.sum()) / n,
            transfer_cycles=float(stream.cycles.sum()) / n,
            latency_cycles=float(stream.delivery_latency.sum()) / n,
            data_wires=layout.num_wires,
            overhead_wires=2,
        )

    def scheme_delay_cycles(
        self, stats: TransferStats, system: SystemConfig
    ) -> float:
        """Synthesized TX/RX logic delay on the round trip (Figure 17)."""
        synthesis = DescSynthesisModel(
            num_chunks=stats.data_wires,
            chunk_bits=self.scheme.chunk_bits,
            clock_hz=system.clock_hz,
        )
        return synthesis.round_trip_delay_cycles()

    def controller_write_flips(self, system: SystemConfig) -> float:
        """Write-data broadcast switching under last-value skipping.

        Last-value skipping makes the cache controller track the last
        value exchanged with every mat and broadcast write data across
        the subbank H-trees (Section 5.2); other skip policies charge
        nothing.
        """
        if self.scheme.skip_policy != "last-value":
            return 0.0
        return _LAST_VALUE_BROADCAST_ACTIVITY * system.block_bytes * 8


class BaselineTransferModel:
    """System-level behaviour of the binary-style baseline encoders.

    The constructor builds the encoder the scheme streams through, so
    an impossible bus width, segment or ECC pairing raises
    ``ValueError`` before any sample is touched.
    """

    def __init__(self, scheme: SchemeConfig) -> None:
        self.scheme = scheme
        block_bits = _SAMPLE_BLOCK_BITS
        data_wires = scheme.data_wires
        if scheme.ecc_segment_bits:
            if scheme.ecc_segment_bits != scheme.data_wires:
                raise ValueError(
                    "binary-style ECC configurations require the Hamming "
                    "segment to equal the bus width (the paper's W-S configs "
                    f"have W == S); got {scheme.data_wires}-{scheme.ecc_segment_bits}"
                )
            require_multiple("block_bits", block_bits, scheme.ecc_segment_bits)
            # Each beat carries one segment codeword: W data + p parity.
            beats = block_bits // scheme.ecc_segment_bits
            data_wires += HammingSecded(scheme.ecc_segment_bits).parity_bits
            block_bits = beats * data_wires
        self._encoder = make_encoder(
            scheme.name,
            block_bits=block_bits,
            data_wires=data_wires,
            segment_bits=scheme.segment_bits,
        )
        # A binary bus drives its data and parity wires independently,
        # so a W-S configuration streams the sample's words at width S
        # and adds the parity wires' flips from the check words alone.
        self._data_encoder = None
        if scheme.ecc_segment_bits and scheme.name == "binary":
            self._data_encoder = make_encoder(
                "binary",
                block_bits=_SAMPLE_BLOCK_BITS,
                data_wires=scheme.ecc_segment_bits,
            )

    def transfer_stats(
        self, sample: WorkloadSample, exclude_null: bool = False
    ) -> TransferStats:
        """Stream the sample through the configured ``BusEncoder``.

        The packed sample streams as is — the encoder kernels skip
        re-validating and re-packing it per scheme.  Under ECC, binary
        W-S adds the flips between consecutive check words to the
        data wires' flips; the other encoders stream the sample widened
        by its check bits.
        """
        payload = _sample_packed(sample, exclude_null)
        segment_bits = self.scheme.ecc_segment_bits
        encoder = self._encoder
        if not segment_bits:
            stream = encoder.stream_cost(payload)
        elif self._data_encoder is not None:
            stream = self._data_encoder.stream_cost(payload)
            check = secded_check_words(payload, segment_bits).reshape(-1)
            parity_flips = popcount(check ^ shifted_prev(check, 0))
            stream = replace(
                stream,
                data_flips=stream.data_flips
                + parity_flips.reshape(stream.num_blocks, -1).sum(axis=1),
            )
        else:
            stream = encoder.stream_cost(
                secded_extend_stream(payload, segment_bits)
            )
        return self._stats_from_stream(encoder, stream)

    @staticmethod
    def _stats_from_stream(encoder, stream) -> TransferStats:
        n = stream.num_blocks
        return TransferStats(
            data_flips=float(stream.data_flips.sum()) / n,
            overhead_flips=float(stream.overhead_flips.sum()) / n,
            sync_flips=0.0,
            transfer_cycles=float(stream.cycles.sum()) / n,
            latency_cycles=float(stream.cycles.sum()) / n,
            data_wires=encoder.data_wires,
            overhead_wires=encoder.overhead_wires,
        )

    def scheme_delay_cycles(
        self, stats: TransferStats, system: SystemConfig
    ) -> float:
        """One encode/decode pipeline stage for schemes that add
        control wires; raw binary adds nothing."""
        return 1 if stats.overhead_wires else 0

    def controller_write_flips(self, system: SystemConfig) -> float:
        """Baselines charge no controller-side switching."""
        return 0.0


register_transfer_model(DESC_SCHEME_NAMES, DescTransferModel)
register_transfer_model(BASELINE_SCHEME_NAMES, BaselineTransferModel)
