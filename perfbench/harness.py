"""Process plumbing: the work directory, child environments, timed spawns.

Every program process is a fresh ``python -m repro`` (or the traced
launcher) with ``src`` on its path.  Its scratch files, the native
compile cache and its temp files all live in ``.perfbench-work`` at the
root of the checkout, so a run reads and writes nothing outside it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Checkout", "Exit", "LineWatch", "median", "spawn", "stop", "wait"]

BENCH_DIR = Path(__file__).resolve().parent


def median(values) -> float:
    data = list(values)
    return statistics.median(data) if data else math.nan


@dataclass
class Exit:
    """How a child ended: exit code, spawn-to-exit seconds, peak RSS."""

    code: int
    wall_s: float
    rss_mb: float


def spawn(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=None):
    """Start a child; returns ``(process, perf-counter time of spawn)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr, cwd=cwd)
    return proc, started


def wait(proc: subprocess.Popen, started: float, timeout: float = 60.0) -> Exit:
    """Reap ``proc`` with ``wait4`` to read its peak RSS.

    The kernel reports the larger of the child's own peak and the
    parent's RSS at spawn, so the benchmark keeps its own memory small.
    A child still alive after ``timeout`` seconds is killed and reported
    with exit code -9.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, ended - started, usage.ru_maxrss / 1024.0)


def stop(proc: subprocess.Popen, started: float) -> Exit:
    """SIGINT a server (its clean-shutdown path) and reap it.

    No ``poll()`` first: it would reap a server that has already exited,
    and ``wait`` could then no longer read its exit code and peak RSS.
    A signal to an exited child that is not yet reaped does nothing.
    """
    os.kill(proc.pid, signal.SIGINT)
    return wait(proc, started, timeout=20.0)


class LineWatch:
    """Drains a child's pipe on a thread and notes when a line appears."""

    def __init__(self, stream, marker: str) -> None:
        self.marker = marker
        self.seen_at: float | None = None
        self.line = ""
        self.found = threading.Event()
        self._thread = threading.Thread(target=self._drain, args=(stream,), daemon=True)
        self._thread.start()

    def _drain(self, stream) -> None:
        for raw in stream:
            line = raw.decode(errors="replace")
            if self.seen_at is None and self.marker in line:
                self.seen_at = time.perf_counter()
                self.line = line
                self.found.set()
        stream.close()
        self.found.set()

    def join(self) -> None:
        self._thread.join(timeout=20)


class Checkout:
    """The checkout the benchmark runs in (the current directory)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench-work"
        self.native_cache = self.work / "native"
        self.tmp = self.work / "tmp"

    @functools.cached_property
    def expected_figures(self) -> dict:
        """The committed ``results/figures.json``."""
        return json.loads((self.root / "results" / "figures.json").read_text())

    def missing(self) -> str | None:
        """Why the program cannot be run from here, or ``None``."""
        for need in (self.src / "repro" / "__init__.py", self.root / "results" / "figures.json"):
            if not need.is_file():
                return f"{need.relative_to(self.root)} is missing"
        return None

    def prepare(self) -> None:
        for path in (self.work, self.native_cache, self.tmp):
            path.mkdir(parents=True, exist_ok=True)

    def env(self, **extra: str) -> dict[str, str]:
        """A child's environment: no user ``REPRO_*`` settings.

        OpenBLAS gets one thread.  The program's matrix products are
        integer, which NumPy computes without BLAS, so the pool never
        works; but its idle workers spin while ``import numpy`` runs
        and, on a 2-CPU host, make every start-up take 0.07 s or
        0.15 s in streaks.
        """
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key not in ("PYTHONPATH", "TMPDIR")
        }
        env.update(
            PYTHONPATH=str(self.src),
            REPRO_NATIVE_CACHE=str(self.native_cache),
            TMPDIR=str(self.tmp),
            OPENBLAS_NUM_THREADS="1",
        )
        env.update(extra)
        return env

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]

    def launcher(self, spans_path: Path, *args: str) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "launch.py"), str(spans_path), *args]

    def warm_up(self) -> dict:
        """Compile bytecode and the native library before any timing.

        Users pay the compile once per machine, so no timed run should.
        Returns whether the native cache was already warm and whether
        the library loaded.
        """
        was_warm = any(self.native_cache.glob("kernels-*.so"))
        code = (
            "import repro.cli, repro.experiments, repro.experiments.fault_sweep, "
            "repro.service.server, repro.service.check\n"
            "from repro.kernels.native import load_native_kernel, native_error\n"
            "print('native', load_native_kernel() is not None, native_error())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=self.env(), capture_output=True,
            timeout=900, cwd=self.root,
        )
        if out.returncode != 0:
            raise RuntimeError(f"warm-up failed: {out.stderr.decode()[-2000:]}")
        loaded = out.stdout.decode().split()[1] == "True"
        return {"native_cache_warm": was_warm, "native_loaded": loaded}

    def metadata(self, workload: str, seed: int, seconds: int, trace: int) -> dict:
        rev = None
        try:
            got = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=self.root,
                capture_output=True, timeout=10,
            )
            if got.returncode == 0:
                rev = got.stdout.decode().strip()
        except OSError:
            pass
        digest = hashlib.sha256()
        for path in sorted((self.src / "repro").rglob("*")):
            if path.suffix in (".py", ".c") and path.is_file():
                digest.update(str(path.relative_to(self.src)).encode())
                digest.update(path.read_bytes())
        return {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "git_rev": rev,
            "src_digest": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "host": platform.machine(),
        }
