"""Engine-tier fallback tests: native → reference.

The hardened pipeline never fails over silently — every fall from the
native kernel to the reference loop records a structured reason on the
simulator and logs a warning on the ``repro.kernels`` logger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator
from repro.kernels import native as native_mod
from repro.workloads.generator import MemoryTrace

needs_native = pytest.mark.skipif(
    not native_mod.native_available(), reason="native kernel unavailable"
)


def _misaligned_trace() -> MemoryTrace:
    """Addresses off block boundaries: only the reference loop runs it."""
    n = 16
    return MemoryTrace(
        addresses=np.arange(n, dtype=np.int64) * 64 + 4,
        is_write=np.zeros(n, dtype=bool),
        thread=np.zeros(n, dtype=np.int64),
        instructions_between=np.ones(n, dtype=np.int64),
    )


def _aligned_trace() -> MemoryTrace:
    n = 16
    return MemoryTrace(
        addresses=np.arange(n, dtype=np.int64) * 64,
        is_write=np.zeros(n, dtype=bool),
        thread=np.zeros(n, dtype=np.int64),
        instructions_between=np.ones(n, dtype=np.int64),
    )


class TestNativeCache:
    def test_reset_forces_a_fresh_load_attempt(self):
        native_mod.reset_native_kernel_cache()
        try:
            first = native_mod.native_available()
            # The outcome (either way) is cached and reported coherently.
            assert native_mod.native_available() == first
            if first:
                assert native_mod.native_error() is None
            else:
                assert native_mod.native_error()
        finally:
            native_mod.reset_native_kernel_cache()

    def test_env_kill_switch_reported_as_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod.reset_native_kernel_cache()
        try:
            assert not native_mod.native_available()
            assert "REPRO_NATIVE=0" in native_mod.native_error()
        finally:
            native_mod.reset_native_kernel_cache()

    def test_warm_worker_skips_compilation(self, tmp_path):
        """A worker sharing a warm cache loads the .so without a compiler.

        This is the ProcessPool contract: the first worker (or the
        parent) compiles into the ``REPRO_NATIVE_CACHE`` directory;
        every later worker must load that library as-is.  The proof is
        brutal — the warm run gets an empty ``PATH``, so any attempt
        to re-compile fails, yet the native tier must still come up.
        """
        import os
        import subprocess
        import sys

        if not native_mod.native_available():
            pytest.skip("no native tier on this machine")
        cache = tmp_path / "shared-cache"
        probe = (
            "from repro.kernels.native import native_available, native_error\n"
            "assert native_available(), native_error()\n"
        )
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
        env.pop("REPRO_NATIVE", None)
        cold = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True,
        )
        assert cold.returncode == 0, cold.stderr
        compiled = sorted(p.name for p in cache.glob("*.so"))
        assert compiled, "cold worker did not populate the shared cache"

        env_warm = dict(env, PATH="")  # no cc/gcc/clang reachable
        warm = subprocess.run(
            [sys.executable, "-c", probe], env=env_warm,
            capture_output=True, text=True,
        )
        assert warm.returncode == 0, (
            f"warm worker tried to recompile: {warm.stderr}"
        )
        assert sorted(p.name for p in cache.glob("*.so")) == compiled


class TestConstructionFallback:
    def test_auto_records_reason_when_native_unavailable(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod.reset_native_kernel_cache()
        try:
            with caplog.at_level("WARNING", logger="repro.kernels"):
                sim = MulticoreSimulator(MulticoreConfig(), engine="auto")
            assert sim.native is None
            assert "native kernel unavailable" in sim.fallback_reason
            assert "REPRO_NATIVE=0" in sim.fallback_reason
            assert "using the reference loop" in sim.fallback_reason
            assert any("native kernel unavailable" in rec.message
                       for rec in caplog.records)
            # Every run now uses the reference loop, so the reason stays.
            sim.run(_aligned_trace())
            assert "native kernel unavailable" in sim.fallback_reason
        finally:
            native_mod.reset_native_kernel_cache()

    def test_explicit_native_raises_instead_of_degrading(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod.reset_native_kernel_cache()
        try:
            with pytest.raises(RuntimeError, match="native kernel unavailable"):
                MulticoreSimulator(MulticoreConfig(), engine="native")
        finally:
            native_mod.reset_native_kernel_cache()

    @needs_native
    def test_best_tier_leaves_no_reason(self):
        sim = MulticoreSimulator(MulticoreConfig(), engine="native")
        assert sim.fallback_reason is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be"):
            MulticoreSimulator(MulticoreConfig(), engine="turbo")


@needs_native
class TestDispatchFallback:
    def test_misaligned_trace_falls_back_with_reason(self, caplog):
        sim = MulticoreSimulator(MulticoreConfig(), engine="auto")
        with caplog.at_level("WARNING", logger="repro.kernels"):
            stats = sim.run(_misaligned_trace())
        assert stats.references == 16
        assert "not block-aligned" in sim.fallback_reason
        assert any("not block-aligned" in rec.message
                   for rec in caplog.records)

    def test_aligned_trace_stays_on_fast_tier(self, caplog):
        sim = MulticoreSimulator(MulticoreConfig(), engine="native")
        with caplog.at_level("WARNING", logger="repro.kernels"):
            sim.run(_aligned_trace())
        assert sim.fallback_reason is None
        assert not caplog.records

    def test_fallback_results_match_reference_engine(self):
        trace = _misaligned_trace()
        fast = MulticoreSimulator(MulticoreConfig(), engine="native")
        reference = MulticoreSimulator(MulticoreConfig(), engine="reference")
        assert fast.run(trace) == reference.run(trace)

    def test_native_tier_reports_dispatch_fallback_too(self, caplog):
        sim = MulticoreSimulator(MulticoreConfig(), engine="native")
        with caplog.at_level("WARNING", logger="repro.kernels"):
            stats = sim.run(_misaligned_trace())
        assert stats.references == 16
        assert "native kernel" in sim.fallback_reason

    def test_aligned_run_clears_a_dispatch_reason(self):
        sim = MulticoreSimulator(MulticoreConfig(), engine="native")
        sim.run(_misaligned_trace())
        assert "not block-aligned" in sim.fallback_reason
        sim.run(_aligned_trace())
        assert sim.fallback_reason is None
