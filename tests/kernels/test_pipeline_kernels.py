"""The one-call-per-epoch pipeline kernels: tier equivalence.

Every dispatcher in :mod:`repro.kernels.pipeline` has a native entry
point and a NumPy twin (lint R003 pins the signatures); these tests pin
the *values*: byte-identical outputs on randomized geometries, across
the packed/unpacked payload forms, at the generator level, and — for
the 24 golden configurations — at the full-simulation level with the
native pipeline disabled.

A test switches to the NumPy tier mid-way with the ``numpy_tier``
fixture (``REPRO_NATIVE=0`` plus a reset of the cached native load,
both undone afterwards), so both tiers run in one process and compare
directly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import native, pipeline

requires_native = pytest.mark.skipif(
    not pipeline.pipeline_available(),
    reason="native pipeline unavailable on this machine",
)

GOLDEN_PATH = Path(__file__).parent.parent / "sim" / "golden_runs.json"


@pytest.fixture
def numpy_tier(monkeypatch):
    """A switch that turns the native library off for the rest of the test."""

    def switch() -> None:
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset_native_kernel_cache()

    yield switch
    monkeypatch.undo()
    native.reset_native_kernel_cache()


def _random_bits(rng, num_blocks: int, block_bits: int) -> np.ndarray:
    # Mix dense, sparse, and all-zero blocks: the zero-detecting
    # encoders (DZC, zero-skipped bus-invert) branch on them.
    bits = (rng.random((num_blocks, block_bits)) < 0.4).astype(np.uint8)
    bits[rng.random(num_blocks) < 0.2] = 0
    sparse = rng.random(num_blocks) < 0.3
    bits[sparse] &= (
        rng.random((int(sparse.sum()), block_bits)) < 0.1
    ).astype(np.uint8)
    return bits


class TestPackedBits:
    def test_roundtrip_from_bits(self):
        rng = np.random.default_rng(0)
        bits = _random_bits(rng, 13, 192)
        packed = pipeline.PackedBits.from_bits(bits)
        assert packed.shape == (13, 192)
        np.testing.assert_array_equal(packed.bits, bits)

    def test_lazy_unpack_matches_and_caches(self):
        rng = np.random.default_rng(1)
        bits = _random_bits(rng, 9, 128)
        eager = pipeline.PackedBits.from_bits(bits)
        # Same words, no eager matrix: the lazy path must reproduce it.
        lazy = pipeline.PackedBits(eager.words, 9, 128)
        np.testing.assert_array_equal(lazy.bits, bits)
        assert lazy.bits is lazy.bits  # cached, not re-unpacked

    def test_odd_total_bits_pad_to_whole_words(self):
        bits = np.ones((3, 24), dtype=np.uint8)  # 72 bits -> 2 words
        packed = pipeline.PackedBits.from_bits(bits)
        assert packed.words.dtype == np.uint64
        np.testing.assert_array_equal(packed.bits, bits)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_blocks=st.integers(1, 12),
        chunk_bits=st.sampled_from([1, 2, 4, 8, 16, 32]),
        block_bits=st.sampled_from([64, 128, 512]),
    )
    def test_chunks_match_bit_matrix_to_chunks(
        self, seed, num_blocks, chunk_bits, block_bits
    ):
        from repro.util.bitops import bit_matrix_to_chunks

        bits = _random_bits(np.random.default_rng(seed), num_blocks, block_bits)
        words_only = pipeline.PackedBits(
            pipeline.PackedBits.from_bits(bits).words, num_blocks, block_bits
        )
        chunks = words_only.chunks(chunk_bits)
        assert chunks.dtype == np.int64
        np.testing.assert_array_equal(chunks, bit_matrix_to_chunks(bits, chunk_bits))
        assert words_only._bits is None  # nothing was unpacked

    def test_chunks_keep_the_top_bit_of_32_bit_chunks(self):
        bits = np.zeros((1, 64), dtype=np.uint8)
        bits[0, 31] = bits[0, 63] = 1
        chunks = pipeline.PackedBits.from_bits(bits).chunks(32)
        assert chunks.tolist() == [[2**31, 2**31]]

    @pytest.mark.parametrize("chunk_bits", [3, 64, 512])
    def test_chunks_reject_other_widths(self, chunk_bits):
        packed = pipeline.PackedBits.from_bits(np.zeros((2, 512), dtype=np.uint8))
        with pytest.raises(ValueError, match="chunk widths"):
            packed.chunks(chunk_bits)

    def test_as_bit_payload_checks_block_bits(self):
        from repro.encoding.base import as_bit_payload

        packed = pipeline.PackedBits.from_bits(
            np.zeros((4, 64), dtype=np.uint8)
        )
        assert as_bit_payload(packed, 64) is packed
        with pytest.raises(ValueError):
            as_bit_payload(packed, 128)


@requires_native
class TestEncoderTierEquivalence:
    """Native flip kernels == NumPy encoder formulations, bit for bit."""

    # Geometries chosen to cover the SWAR fast paths (width a multiple
    # of 64, power-of-two segments including the degenerate s=1) and
    # the scalar fallbacks (odd widths/segments).
    GEOMETRIES = [
        (64, 8), (64, 4), (64, 1), (128, 8), (128, 2), (192, 4),
        (64, 16), (48, 3), (96, 6), (32, 8),
    ]

    @pytest.mark.parametrize("wires,segment", GEOMETRIES)
    def test_dzc_flips(self, wires, segment):
        rng = np.random.default_rng(wires * 100 + segment)
        for trial in range(4):
            beats = int(rng.integers(2, 9))
            bits = _random_bits(rng, 12, wires * beats)
            native = pipeline.dzc_flips_native(bits, wires, segment)
            twin = pipeline.dzc_flips_numpy(bits, wires, segment)
            assert native is not None
            for got, want in zip(native, twin):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("wires,segment", GEOMETRIES)
    @pytest.mark.parametrize("zero_skipping", [None, "sparse", "encoded"])
    def test_bus_invert_flips(self, wires, segment, zero_skipping):
        if zero_skipping == "encoded" and wires // segment > 39:
            pytest.skip("encoded mode words cap at 39 ternary segments")
        rng = np.random.default_rng(wires * 1000 + segment)
        for trial in range(3):
            beats = int(rng.integers(2, 9))
            bits = _random_bits(rng, 10, wires * beats)
            native = pipeline.bus_invert_flips_native(
                bits, wires, segment, zero_skipping
            )
            twin = pipeline.bus_invert_flips_numpy(
                bits, wires, segment, zero_skipping
            )
            assert native is not None
            for got, want in zip(native, twin):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("wires", [32, 64, 128, 48])
    def test_binary_flips(self, wires):
        rng = np.random.default_rng(wires)
        bits = _random_bits(rng, 20, wires * 8)
        native = pipeline.binary_flips_native(bits, wires)
        twin = pipeline.binary_flips_numpy(bits, wires)
        assert native is not None
        for got, want in zip(native, twin):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("wires,segment", [(64, 8), (128, 4)])
    def test_packed_payload_equals_matrix_payload(self, wires, segment):
        rng = np.random.default_rng(7)
        bits = _random_bits(rng, 16, wires * 8)
        packed = pipeline.PackedBits.from_bits(bits)
        for fn, args in [
            (pipeline.binary_flips, (wires,)),
            (pipeline.dzc_flips, (wires, segment)),
            (pipeline.bus_invert_flips, (wires, segment, "sparse")),
        ]:
            from_matrix = fn(bits, *args)
            from_packed = fn(packed, *args)
            for got, want in zip(from_packed, from_matrix):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("skip_policy", ["none", "zero", "last-value"])
    def test_desc_stream_arrays(self, skip_policy):
        rng = np.random.default_rng(hash(skip_policy) % 2**32)
        for trial in range(4):
            num_blocks = int(rng.integers(2, 20))
            rounds = int(rng.integers(1, 6))
            wires = int(rng.integers(8, 129))
            values = rng.integers(
                0, 16, size=(num_blocks * rounds, wires), dtype=np.int64
            )
            last = rng.integers(0, 16, size=wires, dtype=np.int64)
            native = pipeline.desc_stream_arrays_native(
                values, num_blocks, rounds, wires, skip_policy, last
            )
            twin = pipeline.desc_stream_arrays_numpy(
                values, num_blocks, rounds, wires, skip_policy, last
            )
            assert native is not None
            for got, want in zip(native, twin):
                np.testing.assert_array_equal(got, want)


@requires_native
class TestBlockAssembleEquivalence:
    def _draws(self, rng, num_blocks, words_per_block, chunks_per_word):
        chunks = num_blocks * words_per_block * chunks_per_word
        return {
            "fresh": rng.integers(
                1, 16,
                size=(num_blocks, words_per_block * chunks_per_word),
                dtype=np.int64,
            ),
            "null_draw": rng.random(num_blocks),
            "zero_word_draw": rng.random((num_blocks, words_per_block)),
            "zero_chunk_draw": rng.random(chunks).reshape(num_blocks, -1),
            "word_copy_draw": rng.random((num_blocks, words_per_block)),
            "repeat_draw": rng.random(chunks).reshape(num_blocks, -1),
        }

    @pytest.mark.parametrize("with_bits", [False, True])
    @pytest.mark.parametrize("with_packed", [False, True])
    def test_matches_numpy_twin(self, with_bits, with_packed):
        rng = np.random.default_rng(42 + with_bits + 2 * with_packed)
        for trial in range(6):
            num_blocks = int(rng.integers(1, 25))
            words_per_block = int(rng.integers(1, 17))
            chunks_per_word = int(rng.integers(1, 9))
            chunk_bits = int(rng.choice([1, 2, 4, 8]))
            probs = tuple(rng.random(5) * 0.6)
            draws = self._draws(
                rng, num_blocks, words_per_block, chunks_per_word
            )
            native = pipeline.block_assemble_native(
                **draws, probabilities=probs, chunk_bits=chunk_bits,
                with_bits=with_bits, with_packed=with_packed,
            )
            twin = pipeline.block_assemble_numpy(
                **draws, probabilities=probs, chunk_bits=chunk_bits,
                with_bits=with_bits, with_packed=with_packed,
            )
            assert native is not None
            np.testing.assert_array_equal(native[0], twin[0])
            if with_bits:
                np.testing.assert_array_equal(native[1], twin[1])
            else:
                assert native[1] is None and twin[1] is None
            if with_packed:
                np.testing.assert_array_equal(
                    native[2].words, twin[2].words
                )
                np.testing.assert_array_equal(native[2].bits, twin[2].bits)
            else:
                assert native[2] is None and twin[2] is None


@requires_native
class TestTraceTierEquivalence:
    def test_trace_assemble_matches_numpy_twin(self):
        rng = np.random.default_rng(3)
        rank_cdf = np.sort(rng.integers(0, 2**64, 32, dtype=np.uint64))
        gap_cdf = np.sort(rng.integers(0, 2**64, 16, dtype=np.uint64))
        for trial in range(3):
            args = dict(
                base=int(rng.integers(0, 2**63)),
                n=int(rng.integers(100, 3000)),
                threads=int(rng.integers(1, 33)),
                switch_threshold=int(
                    rng.integers(0, 2**64, dtype=np.uint64)
                ),
                stream_threshold=int(rng.integers(0, 2**62)),
                shared_threshold=int(rng.integers(2**62, 2**63 - 1)),
                write_threshold=int(rng.integers(0, 2**63 - 1)),
                rank_table=rank_cdf,
                gap_table=gap_cdf,
                private_blocks=int(rng.integers(16, 4096)),
                shared_blocks=int(rng.integers(16, 4096)),
                stream_blocks=int(rng.integers(16, 512)),
                stream_region=int(rng.integers(2**20, 2**24)),
                block_bytes=64,
            )
            native = pipeline.trace_assemble_native(**args)
            twin = pipeline.trace_assemble_numpy(**args)
            assert native is not None
            for got, want in zip(native, twin):
                np.testing.assert_array_equal(got, want)

    def test_memory_trace_identical_across_tiers(self, numpy_tier):
        from repro.workloads.generator import memory_trace
        from repro.workloads.profiles import profile

        app = profile("Ocean")
        native = memory_trace(app, 5000, seed=11)
        numpy_tier()
        fallback = memory_trace(app, 5000, seed=11)
        np.testing.assert_array_equal(native.addresses, fallback.addresses)
        np.testing.assert_array_equal(native.is_write, fallback.is_write)
        np.testing.assert_array_equal(native.thread, fallback.thread)
        np.testing.assert_array_equal(
            native.instructions_between, fallback.instructions_between
        )

    def test_block_sample_identical_across_tiers(self, numpy_tier):
        from repro.workloads.generator import block_sample
        from repro.workloads.profiles import profile

        app = profile("Radix")
        chunks, packed = block_sample(app, 300, seed=4)
        numpy_tier()
        chunks2, packed2 = block_sample(app, 300, seed=4)
        np.testing.assert_array_equal(chunks, chunks2)
        np.testing.assert_array_equal(packed.words, packed2.words)
        np.testing.assert_array_equal(packed.bits, packed2.bits)


class TestGroupRankTiers:
    def test_dense_native_matches_sort_twin(self):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 64, size=5000, dtype=np.int64)
        twin = pipeline.group_rank_numpy(groups)
        native = pipeline.group_rank_native(groups)
        if native is not None:  # no native tier on this box otherwise
            np.testing.assert_array_equal(native, twin)
        np.testing.assert_array_equal(pipeline.group_rank(groups), twin)

    def test_wide_range_bails_to_sort(self):
        # Range >> n: dense counting would allocate absurdly, so the
        # native variant declines and the dispatcher must still answer.
        groups = np.array([0, 2**40, 0, 2**40, 7], dtype=np.int64)
        assert pipeline.group_rank_native(groups) is None
        np.testing.assert_array_equal(
            pipeline.group_rank(groups),
            pipeline.group_rank_numpy(groups),
        )


class TestDispatcherFallback:
    def test_env_kill_switch_forces_numpy(self, numpy_tier):
        numpy_tier()
        assert not pipeline.pipeline_available()
        assert "REPRO_NATIVE=0" in pipeline.pipeline_error()
        rng = np.random.default_rng(9)
        bits = _random_bits(rng, 8, 512)
        assert pipeline.binary_flips_native(bits, 64) is None
        # The dispatcher transparently serves the NumPy answer.
        twin = pipeline.binary_flips_numpy(bits, 64)
        for got, want in zip(pipeline.binary_flips(bits, 64), twin):
            np.testing.assert_array_equal(got, want)


@requires_native
class TestGoldenCrossTier:
    """All 24 golden configs, full simulation, native pipeline OFF.

    The committed golden runs already pin the native tier (they run
    under whatever tier is active, natively in CI); this repeats them
    against the NumPy twins in the same process, so a tier divergence
    fails here even on machines whose default tier hides it.  A private
    result store makes every run recompute: the process-wide store may
    already hold these configurations from earlier tests.
    """

    def _golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    @staticmethod
    def _result_dict(result):
        # Mirrors tests/sim/test_engine.py's golden comparison shape
        # (tests are not an importable package).
        return {
            "app": result.app,
            "scheme": result.scheme,
            "cycles": result.cycles,
            "hit_latency": result.hit_latency,
            "miss_latency": result.miss_latency,
            "bank_wait": result.bank_wait,
            "transfers": result.transfers,
            "transfer_stats": asdict(result.transfer_stats),
            "l2": asdict(result.l2),
            "processor": asdict(result.processor),
        }

    def test_all_golden_configs_byte_identical_without_native(
        self, numpy_tier
    ):
        from repro.sim.config import SchemeConfig, SystemConfig
        from repro.sim.engine import StagedEngine
        from repro.sim.store import ResultStore

        golden = self._golden()
        numpy_tier()
        system = SystemConfig(
            sample_blocks=golden["system"]["sample_blocks"]
        )
        engine = StagedEngine(ResultStore())
        mismatches = []
        for entry in golden["runs"]:
            scheme = SchemeConfig(**entry["scheme_config"])
            result = engine.run(entry["app"], scheme, system)
            if self._result_dict(result) != entry["result"]:
                mismatches.append((entry["app"], scheme.name))
        assert mismatches == []


@requires_native
class TestFaultCampaignParity:
    def test_faulty_campaign_identical_across_tiers(self, numpy_tier):
        from repro.faults.campaign import FaultCampaignConfig, run_campaign
        from repro.faults.processes import FaultConfig

        config = FaultCampaignConfig(
            num_blocks=24, block_bits=128, segment_bits=16, data_seed=9,
            fault=FaultConfig(drop_rate=2e-3, glitch_rate=1e-3, seed=3),
            resync_interval=4,
        )
        native = asdict(run_campaign(config).stats)
        numpy_tier()
        fallback = asdict(run_campaign(config).stats)
        assert native == fallback
