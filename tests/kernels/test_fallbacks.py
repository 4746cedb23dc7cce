"""The native library's load cache and its ``REPRO_NATIVE=0`` kill switch.

A failed or disabled build is cached with its reason, and a worker that
shares a warm ``REPRO_NATIVE_CACHE`` loads the library without a
compiler.
"""

from __future__ import annotations

import pytest

from repro.kernels import native as native_mod


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
