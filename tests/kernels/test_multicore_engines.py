"""Equivalence and unit tests for the fast multicore engine.

The compiled native kernel must be *cycle-exact* against the reference
event loop — every statistic identical, not approximately equal.  The
property tests here drive both engines over randomized traces and
configurations; the golden-run suite (tests/sim/test_golden_runs.py)
covers the paper's actual configurations.  Without a C compiler there
is no fast engine, and the comparisons skip.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator
from repro.kernels import native as native_mod
from repro.kernels.native import NativeMulticoreEngine
from repro.workloads.generator import MemoryTrace, memory_trace
from repro.workloads.profiles import profile

needs_native = pytest.mark.skipif(
    not native_mod.native_available(), reason="native kernel unavailable"
)
FAST_ENGINES = [pytest.param("native", marks=needs_native)]


def synthetic_trace(
    rng: np.random.Generator,
    n: int,
    num_threads: int,
    num_blocks: int,
    block_bytes: int = 64,
) -> MemoryTrace:
    """A random block-aligned trace with clustered reuse."""
    blocks = rng.integers(0, num_blocks, size=n)
    return MemoryTrace(
        addresses=blocks * block_bytes,
        is_write=rng.random(n) < 0.4,
        thread=rng.integers(0, num_threads, size=n),
        instructions_between=rng.integers(0, 12, size=n),
    )


def run_engine(engine: str, trace, config=None, runs=1):
    sim = MulticoreSimulator(config or MulticoreConfig(), engine=engine)
    for _ in range(runs):
        sim.run(trace)
    return sim


def stats_of(sim) -> dict:
    return dataclasses.asdict(sim.stats)


class TestEquivalenceProperty:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_traces_match_reference(self, engine, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 1500))
        threads = int(rng.integers(1, 12))
        blocks = int(rng.integers(8, 600))
        trace = synthetic_trace(rng, n, threads, blocks)
        ref = run_engine("reference", trace)
        fast = run_engine(engine, trace)
        assert stats_of(fast) == stats_of(ref)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_configs_match_reference(self, engine, seed):
        rng = np.random.default_rng(seed ^ 0x5EED)
        cfg = MulticoreConfig(
            num_cores=int(rng.choice([1, 2, 3, 8])),
            l1_size_bytes=int(rng.choice([4096, 16384])),
            l2_banks=int(rng.choice([1, 4, 16])),
            dram_channels=int(rng.choice([1, 2, 4])),
            dram_reorder_window=int(rng.choice([0, 1, 32])),
            nuca=bool(rng.random() < 0.3),
            transfer_windows=(
                tuple(rng.integers(2, 16, size=5).tolist())
                if rng.random() < 0.5
                else None
            ),
        )
        trace = synthetic_trace(rng, 800, int(rng.integers(1, 10)), 300)
        ref = run_engine("reference", trace, cfg)
        fast = run_engine(engine, trace, cfg)
        assert stats_of(fast) == stats_of(ref)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_multi_run_state_persists(self, engine):
        """Counters accumulate and cache/DRAM state carries across runs."""
        rng = np.random.default_rng(33)
        traces = [synthetic_trace(rng, 700, 6, 200) for _ in range(3)]
        ref = MulticoreSimulator(engine="reference")
        fast = MulticoreSimulator(engine=engine)
        for trace in traces:
            ref.run(trace)
            fast.run(trace)
            assert stats_of(fast) == stats_of(ref)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_hit_heavy_trace_matches(self, engine):
        """Long hit streaks (the batched fast path) stay exact."""
        rng = np.random.default_rng(7)
        # A tiny working set per thread makes nearly every access a hit
        # after warmup, driving streaks far past the batching threshold.
        n = 6000
        thread = np.sort(rng.integers(0, 4, size=n))
        blocks = rng.integers(0, 8, size=n) + 64 * thread
        trace = MemoryTrace(
            addresses=blocks * 64,
            is_write=rng.random(n) < 0.3,
            thread=thread,
            instructions_between=rng.integers(0, 4, size=n),
        )
        ref = run_engine("reference", trace)
        fast = run_engine(engine, trace)
        assert stats_of(fast) == stats_of(ref)
        assert fast.stats.l1_hits > 0.8 * fast.stats.references

    @needs_native
    def test_real_workload_trace_matches(self):
        trace = memory_trace(profile("Ocean"), 8000, seed=9)
        ref = run_engine("reference", trace)
        assert stats_of(run_engine("native", trace)) == stats_of(ref)


class TestFastEngineDispatch:
    def test_supports_rejects_unaligned(self):
        trace = MemoryTrace(
            addresses=np.array([64, 130]),
            is_write=np.array([False, True]),
            thread=np.array([0, 0]),
            instructions_between=np.array([0, 0]),
        )
        assert not NativeMulticoreEngine.supports(trace, MulticoreConfig())

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_unaligned_trace_falls_back_to_reference(self, engine):
        rng = np.random.default_rng(12)
        trace = synthetic_trace(rng, 400, 4, 100)
        trace = MemoryTrace(
            addresses=trace.addresses + 2,  # break alignment
            is_write=trace.is_write,
            thread=trace.thread,
            instructions_between=trace.instructions_between,
        )
        ref = run_engine("reference", trace)
        fast = run_engine(engine, trace)
        assert stats_of(fast) == stats_of(ref)

    @pytest.mark.parametrize("engine", ["reference", *FAST_ENGINES])
    def test_empty_trace(self, engine):
        trace = MemoryTrace(
            addresses=np.zeros(0, dtype=np.int64),
            is_write=np.zeros(0, dtype=bool),
            thread=np.zeros(0, dtype=np.int64),
            instructions_between=np.zeros(0, dtype=np.int64),
        )
        sim = run_engine(engine, trace, runs=2)
        assert stats_of(sim) == stats_of(MulticoreSimulator(engine="reference"))


GOLDEN_PATH = (
    Path(__file__).parent.parent / "sim" / "golden_runs.json"
)
with open(GOLDEN_PATH) as _fh:
    GOLDEN_RUNS = json.load(_fh)["runs"]


class TestGoldenRunEquivalence:
    """Engine equivalence on the golden-run configurations.

    Every (application, scheme) pair of the golden suite is replayed on
    the event-driven substrate: the application's memory trace under
    the scheme's L2 transfer occupancy (the golden
    ``transfer_cycles``).  All engines must report identical cycle and
    flip-relevant counts — the same bit-for-bit bar the analytic path
    holds in tests/sim/test_engine.py.
    """

    # One trace per application, shared across its 8 scheme entries.
    _traces: dict = {}

    @classmethod
    def _trace(cls, app_name: str):
        if app_name not in cls._traces:
            cls._traces[app_name] = memory_trace(
                profile(app_name), 6000, seed=11
            )
        return cls._traces[app_name]

    @pytest.mark.parametrize(
        "entry",
        GOLDEN_RUNS,
        ids=[
            f"{e['app']}-{e['scheme_config']['name']}" for e in GOLDEN_RUNS
        ],
    )
    @needs_native
    def test_engines_agree_on_golden_configuration(self, entry):
        window = round(entry["result"]["transfer_stats"]["transfer_cycles"])
        config = MulticoreConfig(l2_transfer_cycles=int(window))
        trace = self._trace(entry["app"])
        ref = run_engine("reference", trace, config)
        fast = run_engine("native", trace, config)
        assert stats_of(fast) == stats_of(ref)


class TestEngineSelection:
    def test_rejects_unknown_engine(self):
        # "vectorized" named a deleted tier; it is as unknown as any other.
        for engine in ("warp-drive", "vectorized"):
            with pytest.raises(
                ValueError, match="'auto', 'native' or 'reference'"
            ):
                MulticoreSimulator(engine=engine)

    def test_auto_falls_back_without_native(self, monkeypatch):
        monkeypatch.setattr(native_mod, "_kernel", None)
        monkeypatch.setattr(native_mod, "_kernel_error", "forced by test")
        sim = MulticoreSimulator(engine="auto")
        assert sim.native is None
        assert "using the reference loop" in sim.fallback_reason

    def test_explicit_native_raises_without_compiler(self, monkeypatch):
        monkeypatch.setattr(native_mod, "_kernel", None)
        monkeypatch.setattr(native_mod, "_kernel_error", "forced by test")
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            MulticoreSimulator(engine="native")

    @needs_native
    def test_native_selected_by_default(self):
        sim = MulticoreSimulator()
        assert sim.native is not None
