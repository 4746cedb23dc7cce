"""The transfer models on packed samples.

Binary W-S SECDED costs are checked against the widened bit stream they
replaced, and a sample that every figure scheme has run on must still
be words only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.layout import secded_extend_stream
from repro.encoding.registry import make_encoder, make_transfer_model
from repro.experiments import fig22_design_scatter, fig26_chunk_size, fig28_ecc_time
from repro.experiments.common import DEFAULT_SCHEMES
from repro.kernels.pipeline import pipeline_available
from repro.sim.config import SchemeConfig, desc_scheme
from repro.sim.stages import sample_workload
from repro.workloads.profiles import profile

#: Every segment width a binary W-S configuration accepts on 512-bit
#: blocks (W == S, S divides the block).
BINARY_SECDED_WIDTHS = [1 << k for k in range(10)]


def _sample(num_blocks: int = 300):
    return sample_workload(profile("Radix"), num_blocks, 1)


class TestBinarySecded:
    """Binary W-S: the sample's flips at width S plus the flips between
    consecutive check words, against the widened 0/1 stream streamed at
    width S + p."""

    @pytest.mark.parametrize("segment_bits", BINARY_SECDED_WIDTHS)
    @pytest.mark.parametrize("exclude_null", [False, True])
    def test_matches_the_widened_stream(self, segment_bits, exclude_null):
        scheme = SchemeConfig(
            name="binary", data_wires=segment_bits, ecc_segment_bits=segment_bits
        )
        sample = _sample()
        got = make_transfer_model(scheme).transfer_stats(sample, exclude_null)

        bits = sample.packed.words.view(np.uint8)
        bits = np.unpackbits(bits, bitorder="little").reshape(-1, 512)
        if exclude_null:
            bits = bits[bits.any(axis=1)]
        widened = secded_extend_stream(bits, segment_bits)
        width = widened.shape[1] // (512 // segment_bits)
        stream = make_encoder(
            "binary", block_bits=widened.shape[1], data_wires=width
        ).stream_cost(widened)
        n = stream.num_blocks
        assert got.data_flips == float(stream.data_flips.sum()) / n
        assert got.transfer_cycles == float(stream.cycles.sum()) / n
        assert (got.data_wires, got.overhead_wires) == (width, 0)

    def test_other_encoders_stream_the_widened_bits(self):
        """Bus-invert segments span data and parity wires, so it keeps
        streaming the widened matrix."""
        scheme = SchemeConfig(
            name="bus-invert", data_wires=64, segment_bits=8, ecc_segment_bits=64
        )
        sample = _sample()
        got = make_transfer_model(scheme).transfer_stats(sample)
        widened = secded_extend_stream(sample.packed, 64)
        stream = make_encoder(
            "bus-invert", block_bits=widened.shape[1], data_wires=72,
            segment_bits=8,
        ).stream_cost(widened)
        assert got.data_flips == float(stream.data_flips.sum()) / stream.num_blocks


def _figure_schemes() -> list[SchemeConfig]:
    """Every scheme Figs. 16, 22, 26 and 28 run on a sample."""
    schemes = [scheme for _, scheme in DEFAULT_SCHEMES]
    for width in fig22_design_scatter.WIDTH_SWEEP:
        schemes.append(SchemeConfig(name="binary", data_wires=width))
    for chunk in fig26_chunk_size.CHUNK_SIZES:
        for wires in fig26_chunk_size.WIRE_COUNTS:
            if (512 // chunk) % wires == 0:
                schemes.append(desc_scheme("zero", data_wires=wires, chunk_bits=chunk))
    schemes.extend(scheme for _, scheme in fig28_ecc_time.ECC_CONFIGS)
    return schemes


@pytest.mark.skipif(
    not pipeline_available(),
    reason="the NumPy kernel twins unpack their payload",
)
def test_figure_schemes_never_unpack_the_sample():
    """After every Fig. 16/22/26/28 scheme has run on it, with and
    without the null filter, the sample is still words only."""
    sample = _sample(200)
    schemes = _figure_schemes()
    assert len(schemes) == 8 + 4 + 13 + 4
    for scheme in schemes:
        for exclude_null in (False, True):
            make_transfer_model(scheme).transfer_stats(sample, exclude_null)
    assert sample.packed._bits is None
