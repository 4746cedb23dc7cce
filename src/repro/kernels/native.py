"""Compile-on-demand native library behind the pipeline kernels.

This module compiles ``pipeline_native.c`` into a shared library with
the system C compiler; :mod:`repro.kernels.pipeline` declares the
prototypes and drives it through :mod:`ctypes` (both already present
everywhere we run; nothing is installed).

Everything degrades gracefully: if no compiler is available, the build
fails, or ``REPRO_NATIVE=0`` is set, :func:`load_native_kernel` returns
``None`` and the pipeline kernels run their NumPy twins.  The compiled
library lands in a per-user temp directory keyed by source hash, so
rebuilds only happen when the C source changes.
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
from typing import Iterator

__all__ = [
    "load_native_kernel",
    "native_available",
    "native_error",
    "native_cache_dir",
    "reset_native_kernel_cache",
]

#: The C sources compiled into the shared library; the cache key is the
#: hash of their concatenation, so an edit triggers exactly one rebuild.
_SOURCES = (Path(__file__).with_name("pipeline_native.c"),)

_kernel: ctypes.CDLL | None = None
_kernel_error: str | None = None


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
    return ctypes.CDLL(str(lib_path))


def _compile(lib_path: Path) -> None:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    tmp_path = lib_path.with_suffix(f".{os.getpid()}.tmp")
    # -march=native lets the counter-RNG trace kernel vectorize (the
    # library is compiled on demand on the machine that runs it); the
    # kernels are integer-only, so codegen flags cannot change results.
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
    the definitive answer.
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
