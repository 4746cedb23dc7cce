"""Compile-on-demand native library: the multicore trace engine and the
pipeline kernels.

The multicore event loop resists NumPy batching: misses serialize
through shared bank/channel/coherence state.  This module compiles
``multicore_native.c`` — a direct transliteration of the reference
loop onto flat int64 arrays — together with the pipeline kernels of
``pipeline_native.c`` (see :mod:`repro.kernels.pipeline`) into one
shared library, built with the system C compiler and driven through
:mod:`ctypes` (both already present everywhere we run; nothing is
installed).

Everything degrades gracefully: if no compiler is available, the build
fails, or ``REPRO_NATIVE=0`` is set, :func:`load_native_kernel` returns
``None``; the multicore simulator then runs its reference loop and the
pipeline kernels their NumPy twins.  The compiled library lands in a
per-user temp directory keyed by source hash, so rebuilds only happen
when the C source changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.cpu.multicore import MulticoreConfig, MulticoreStats
    from repro.workloads.generator import MemoryTrace

__all__ = [
    "NativeMulticoreEngine",
    "load_native_kernel",
    "native_available",
    "native_error",
    "native_cache_dir",
    "reset_native_kernel_cache",
]

#: All C sources compiled into the one shared library; the cache key is
#: the hash of their concatenation, so editing either triggers exactly
#: one rebuild.
_SOURCES = (
    Path(__file__).with_name("multicore_native.c"),
    Path(__file__).with_name("pipeline_native.c"),
)

#: Field order of the C kernel's cfg[] block (keep in sync with the enum).
_CFG_FIELDS = 13
#: Field order of the C kernel's stats_out[] block.
_STAT_FIELDS = 11

_kernel: ctypes.CDLL | None = None
_kernel_error: str | None = None

_I64P = ctypes.POINTER(ctypes.c_int64)


def _as_i64p(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P)


def native_cache_dir() -> Path:
    """The shared directory holding compiled kernel libraries.

    Defaults to a per-user temp directory; ``REPRO_NATIVE_CACHE``
    overrides it so e.g. a build farm or a ProcessPool test can point
    every worker at one warm cache.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


@contextmanager
def _build_lock(cache_dir: Path) -> Iterator[None]:
    """Serialize concurrent cold builds of the same cache directory.

    Without it, N pool workers starting cold each spawn a compiler; the
    ``os.replace`` below keeps that *correct*, but N-1 compiles are
    wasted work.  Advisory ``flock`` when available, no-op otherwise
    (Windows falls back to the atomic-replace-only behaviour).
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = cache_dir / "build.lock"
    with lock_path.open("w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _build_library() -> ctypes.CDLL:
    source = "".join(path.read_text() for path in _SOURCES)
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache_dir = native_cache_dir()
    cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    lib_path = cache_dir / f"kernels-{digest}.so"
    if not lib_path.exists():
        with _build_lock(cache_dir):
            if not lib_path.exists():  # another worker may have built it
                _compile(lib_path)
    lib = ctypes.CDLL(str(lib_path))
    _prototypes(lib)
    return lib


def _compile(lib_path: Path) -> None:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    tmp_path = lib_path.with_suffix(f".{os.getpid()}.tmp")
    # -march=native lets the counter-RNG trace kernel vectorize (the
    # library is compiled on demand on the machine that runs it); both
    # sources are integer-only, so codegen flags cannot change results.
    # Some toolchains reject the flag — fall back to the portable build.
    base_cmd = [cc, "-O3", "-shared", "-fPIC"]
    tail = [str(path) for path in _SOURCES] + ["-o", str(tmp_path)]
    try:
        subprocess.run(
            base_cmd + ["-march=native"] + tail,
            check=True,
            capture_output=True,
            timeout=120,
        )
    except subprocess.CalledProcessError:
        subprocess.run(
            base_cmd + tail, check=True, capture_output=True, timeout=120
        )
    os.replace(tmp_path, lib_path)  # atomic vs concurrent builders


def _prototypes(lib: ctypes.CDLL) -> None:
    # Declared symbol-by-symbol (lib.<name>.argtypes = ...) so the R008
    # FFI-contract rule can cross-check each binding against the C
    # declaration; keep the grouping aligned with desc_mc_run's
    # parameter blocks in multicore_native.c.
    lib.desc_mc_run.restype = ctypes.c_int64
    lib.desc_mc_run.argtypes = (
        [_I64P, ctypes.c_int64, ctypes.c_int64]
        + [_I64P] * 10
        + [_I64P] * 8
        + [_I64P, _I64P, _I64P]
        + [_I64P, ctypes.c_int64, _I64P]
        + [_I64P, _I64P, _I64P, _I64P]
    )


def load_native_kernel() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` if unavailable.

    The first call attempts the build; the outcome (library or error)
    is cached for the process.  Set ``REPRO_NATIVE=0`` to force the
    pure-Python paths.
    """
    global _kernel, _kernel_error
    if _kernel is not None or _kernel_error is not None:
        return _kernel
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        _kernel_error = "disabled via REPRO_NATIVE=0"
        return None
    try:
        _kernel = _build_library()
    except Exception as exc:  # noqa: BLE001 - any failure means "no native"
        _kernel_error = f"{type(exc).__name__}: {exc}"
        return None
    return _kernel


def native_available() -> bool:
    """Whether the native kernel can be (or has been) loaded."""
    return load_native_kernel() is not None


def native_error() -> str | None:
    """Why the native kernel is unavailable, or ``None`` if it loaded.

    Triggers a load attempt if none happened yet, so callers always get
    the definitive answer (the multicore simulator logs this reason
    when it falls back to its reference loop).
    """
    load_native_kernel()
    return _kernel_error


def reset_native_kernel_cache() -> None:
    """Forget the cached load outcome (library or error).

    The next :func:`load_native_kernel` call re-attempts the build.
    Exists for tests that force load failures and for long-lived
    processes whose environment (compiler, ``REPRO_NATIVE``) changed.
    """
    global _kernel, _kernel_error
    _kernel = None
    _kernel_error = None


class NativeMulticoreEngine:
    """Trace executor backed by the compiled scalar kernel.

    State lives in NumPy int64 arrays owned by this object; the C
    kernel mutates them in place, so state persists across ``run``
    calls exactly like the reference simulator's.

    Exactness requires block-aligned addresses: the reference keys its
    coherence directory by the *raw* address while the kernel's L1
    arrays use block tags, and the two only agree when every address
    is block-aligned (all generated traces are).  :meth:`supports`
    reports this; the simulator falls back to the reference loop
    otherwise.
    """

    def __init__(self, config: MulticoreConfig) -> None:
        lib = load_native_kernel()
        if lib is None:
            raise RuntimeError(f"native kernel unavailable: {_kernel_error}")
        self._fn = lib.desc_mc_run
        cfg = config
        self.config = cfg
        l1_blocks = cfg.l1_size_bytes // cfg.block_bytes
        self.l1_sets = l1_blocks // cfg.l1_associativity
        self.l1_ways = cfg.l1_associativity
        self.num_banks = 128 if cfg.nuca else cfg.l2_banks
        l2_blocks = cfg.l2_size_bytes // cfg.block_bytes
        self.l2_sets = l2_blocks // cfg.l2_associativity
        self.l2_ways = cfg.l2_associativity

        cores = cfg.num_cores
        n1 = self.l1_sets * self.l1_ways
        n2 = self.l2_sets * self.l2_ways
        self.l1_tags = np.full(cores * n1, -1, dtype=np.int64)
        self.l1_state = np.zeros(cores * n1, dtype=np.int64)
        self.l1_stamp = np.full(cores * n1, -1, dtype=np.int64)
        self.l2_tags = np.full(n2, -1, dtype=np.int64)
        self.l2_dirty = np.zeros(n2, dtype=np.int64)
        self.l2_stamp = np.full(n2, -1, dtype=np.int64)
        self.bank_free = np.zeros(self.num_banks, dtype=np.int64)
        self.chan_free = np.zeros(cfg.dram_channels, dtype=np.int64)
        reorder = max(cfg.dram_reorder_window, 1)
        self.ring = np.zeros(cfg.dram_channels * reorder, dtype=np.int64)
        self.ring_pos = np.zeros(cfg.dram_channels, dtype=np.int64)
        self.ring_len = np.zeros(cfg.dram_channels, dtype=np.int64)
        self.misc = np.zeros(1, dtype=np.int64)  # transfer-window index
        if cfg.transfer_windows is not None:
            self.win_seq = np.asarray(cfg.transfer_windows, dtype=np.int64)
        else:
            self.win_seq = np.zeros(0, dtype=np.int64)
        self.cfg_block = np.array(
            [
                self.l1_sets,
                self.l1_ways,
                self.l2_sets,
                self.l2_ways,
                cores,
                cfg.l1_hit_latency,
                cfg.l2_array_latency,
                cfg.l2_transfer_cycles,
                cfg.dram_latency,
                cfg.dram_service,
                cfg.dram_row_hit,
                cfg.dram_row_miss,
                cfg.dram_reorder_window,
            ],
            dtype=np.int64,
        )
        assert len(self.cfg_block) == _CFG_FIELDS

    @staticmethod
    def supports(trace: MemoryTrace, config: MulticoreConfig) -> bool:
        """Whether the kernel runs ``trace`` cycle-exactly (aligned)."""
        if len(trace) == 0:
            return True
        addrs = np.asarray(trace.addresses)
        return bool((addrs % config.block_bytes == 0).all())

    def run(self, trace: MemoryTrace, stats: MulticoreStats) -> MulticoreStats:
        """Execute the trace, accumulating into ``stats``."""
        cfg = self.config
        n = len(trace)
        if n == 0:
            return stats

        addr = trace.addresses.astype(np.int64)
        thr = trace.thread.astype(np.int64)
        num_threads = int(thr.max()) + 1
        order = np.argsort(thr, kind="stable")

        block = addr // cfg.block_bytes
        if cfg.nuca:
            banks = block % 128
            nuca_lat = 3 + (banks * 10) // 127
        else:
            nuca_lat = np.zeros(n, dtype=np.int64)
        row = addr // cfg.dram_row_bytes

        def col(values: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(values[order], dtype=np.int64)

        blk = col(block)
        sb = col((block % self.l1_sets) * self.l1_ways)
        wr = col(trace.is_write.astype(np.int64))
        gap = col(trace.instructions_between.astype(np.int64))
        l2sb = col((block % self.l2_sets) * self.l2_ways)
        bank = col(block % self.num_banks)
        nuca = col(nuca_lat)
        row_c = col(row)
        chan = col(row % cfg.dram_channels)
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(thr, minlength=num_threads)))
        ).astype(np.int64)

        heap = np.zeros(num_threads, dtype=np.int64)
        pos = np.zeros(num_threads, dtype=np.int64)
        clocks = np.zeros(num_threads, dtype=np.int64)
        stats_out = np.zeros(_STAT_FIELDS, dtype=np.int64)

        rc = self._fn(
            _as_i64p(self.cfg_block),
            n,
            num_threads,
            _as_i64p(bounds),
            _as_i64p(blk),
            _as_i64p(sb),
            _as_i64p(wr),
            _as_i64p(gap),
            _as_i64p(l2sb),
            _as_i64p(bank),
            _as_i64p(nuca),
            _as_i64p(row_c),
            _as_i64p(chan),
            _as_i64p(self.l1_tags),
            _as_i64p(self.l1_state),
            _as_i64p(self.l1_stamp),
            _as_i64p(self.l2_tags),
            _as_i64p(self.l2_dirty),
            _as_i64p(self.l2_stamp),
            _as_i64p(self.bank_free),
            _as_i64p(self.chan_free),
            _as_i64p(self.ring),
            _as_i64p(self.ring_pos),
            _as_i64p(self.ring_len),
            _as_i64p(self.win_seq),
            len(self.win_seq),
            _as_i64p(self.misc),
            _as_i64p(heap),
            _as_i64p(pos),
            _as_i64p(clocks),
            _as_i64p(stats_out),
        )
        if rc != 0:  # pragma: no cover - kernel has no failure paths today
            raise RuntimeError(f"native kernel returned {rc}")

        # Same per-run semantics as the reference loop: counters
        # accumulate, cycles and bank_conflicts are set.
        out = stats_out.tolist()
        stats.cycles = int(clocks.max())
        stats.references += out[0]
        stats.l1_hits += out[1]
        stats.l1_misses += out[2]
        stats.l2_hits += out[3]
        stats.l2_misses += out[4]
        stats.invalidations += out[5]
        stats.coherence_writebacks += out[6]
        stats.bank_conflicts = out[7]
        stats.l2_transfers += out[8]
        stats.dram_row_hits += out[9]
        stats.dram_row_misses += out[10]
        return stats
