"""Keyed result store shared by every simulation stage.

The staged engine (:mod:`repro.sim.engine`) memoizes each stage —
workload samples, transfer statistics, cache designs — in one
:class:`ResultStore` instead of scattered per-function ``lru_cache``s.
Centralizing the cache buys three things the function caches could not
provide:

* **observability** — hit/miss/size counters, surfaced by
  ``python -m repro cache-stats``;
* **control** — one ``clear()`` drops every stage's entries (wired into
  :func:`repro.sim.system.clear_caches`);
* **persistence** — an optional pickle file lets separate processes
  (CLI invocations, a restarted service) share expensive stage outputs.

Keys are plain tuples of hashables, built by each stage's ``*_key``
function in :mod:`repro.sim.stages`; the leading element names the
stage so one store can hold every stage's results without collisions.

Workload samples (:data:`MEMORY_ONLY_STAGE`) stay in memory: the pickle
file never receives them, so a sample is always drawn fresh.
Everything derived from a sample — transfer statistics, chunk
statistics, whole runs — persists, so a warm re-run reads its results
without redrawing any sample.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator

__all__ = ["ResultStore", "StoreStats", "RESULT_STORE", "default_store"]

#: Environment variable naming a pickle file the global store persists to.
STORE_PATH_ENV = "REPRO_RESULT_STORE"

#: Environment variable capping the global store's entry count (LRU).
STORE_MAX_ENV = "REPRO_RESULT_STORE_MAX"

#: Format of the persisted payload.  Bumped whenever the pickle layout
#: (or the meaning of stored entries) changes incompatibly; a store
#: written under any other version is discarded with a warning instead
#: of being misread.  Version 3 wraps the pickled entries and counters
#: in a CRC32.
STORE_FORMAT_VERSION = 3

StoreKey = tuple[Hashable, ...]

#: Leading key element (``stages.workload_key``) of the stage whose
#: entries are never persisted: :meth:`ResultStore.save` skips them.  A
#: workload sample is about 100x the bytes of everything derived from
#: it, and redrawing one takes about 10 ms.
MEMORY_ONLY_STAGE = "workload"

#: Internal "no value" marker (``None`` is a legitimate stored value).
_ABSENT = object()


@dataclass(frozen=True)
class StoreStats:
    """Counters describing a :class:`ResultStore`'s effectiveness.

    Attributes:
        hits: Lookups served from the store since construction/load.
        misses: Lookups that had to compute their value.
        size: Entries currently resident.
        evictions: Entries dropped by the LRU cap since
            construction/load (always 0 for an uncapped store).
        max_entries: The LRU cap, or ``None`` when unbounded.
    """

    hits: int
    misses: int
    size: int
    evictions: int = 0
    max_entries: int | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _StaleFormat(Exception):
    """A saved store of another format version: valid data, just old."""

    def __init__(self, version: object) -> None:
        super().__init__(version)
        self.version = version


def _decode(data: bytes) -> dict:
    """The entries and counters held by a saved store's bytes.

    The CRC is checked before the entries are unpickled.  Raises
    :class:`_StaleFormat` for another format version, and any other
    exception for bytes that do not decode.
    """
    payload = pickle.loads(data)
    if not isinstance(payload, dict):
        raise TypeError(f"payload is {type(payload).__name__}, not dict")
    if payload.get("version") != STORE_FORMAT_VERSION:
        raise _StaleFormat(payload.get("version"))
    body = payload["body"]
    if zlib.crc32(body) != payload["crc32"]:
        raise ValueError("CRC32 mismatch")
    state = pickle.loads(body)
    if not isinstance(state["entries"], dict):
        raise TypeError("entries are not a key-to-value mapping")
    for name in ("hits", "misses", "evictions"):
        if type(state[name]) is not int:
            raise TypeError(f"counter {name!r} is not an int")
    return state


def _fsync_directory(directory: Path) -> None:
    """Make a rename inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ResultStore:
    """A keyed cache with hit/miss counters and optional persistence.

    Args:
        path: When given, the store loads any existing file at that
            path on construction and :meth:`save` writes back to it
            every entry but the workload samples
            (:data:`MEMORY_ONLY_STAGE`).  Counters persist alongside
            the entries, so a sequence of CLI invocations accumulates
            meaningful statistics.
        max_entries: When given, cap the store at this many entries,
            evicting least-recently-used ones (every hit refreshes its
            key's recency).  ``None`` (the default) keeps the historic
            unbounded behaviour; the global store reads the cap from
            the ``REPRO_RESULT_STORE_MAX`` environment variable.  Every
            eviction is counted (see :class:`StoreStats`), so an
            undersized cap is visible in ``repro cache-stats`` and the
            service's ``/metrics`` instead of silently thrashing.  An
            evicted entry is gone from the saved file too.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self._entries: dict[StoreKey, Any] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_or_compute(self, key: StoreKey, compute: Callable[[], Any]) -> Any:
        """Return the stored value for ``key``, computing it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            value = compute()
            self.put(key, value)
            return value
        self._hits += 1
        self._touch(key)
        return value

    def get(self, key: StoreKey, default: Any = None) -> Any:
        """Peek at a key without counting a miss on absence.

        One lookup serves both the test and the value: callers that
        need to tell a stored ``None`` from absence pass a sentinel
        ``default`` instead of asking ``key in store`` first.
        """
        value = self._entries.get(key, _ABSENT)
        if value is _ABSENT:
            return default
        self._hits += 1
        self._touch(key)
        return value

    def put(self, key: StoreKey, value: Any) -> None:
        """Insert (or overwrite) an entry, evicting LRU ones over the cap."""
        self._entries.pop(key, None)  # re-insert at the recent end
        self._entries[key] = value
        self._evict_over_cap()

    def _touch(self, key: StoreKey) -> None:
        """Mark ``key`` most-recently-used (dicts preserve insert order)."""
        if self.max_entries is not None:
            self._entries[key] = self._entries.pop(key)

    def _evict_over_cap(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._evictions += 1

    def __contains__(self, key: StoreKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoreKey]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    # Statistics and lifecycle
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups served from the store."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that computed a fresh value."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries the LRU cap has dropped."""
        return self._evictions

    def stats(self) -> StoreStats:
        """A snapshot of the store's counters."""
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self),
            evictions=self._evictions,
            max_entries=self.max_entries,
        )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Pickle the entries and counters to ``path`` (or ``self.path``).

        Workload samples are left out (:data:`MEMORY_ONLY_STAGE`).  The
        pickled entries and counters travel with their CRC32, which
        :meth:`load` checks before unpickling them.  The write is
        atomic and durable: a temp file is fsynced and renamed over the
        target, then the directory is fsynced, so a crash leaves either
        the previous store or the new one, never a torn one.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the store has no default path")
        body = pickle.dumps(
            {
                "entries": {
                    key: value for key, value in self._entries.items()
                    if key[0] != MEMORY_ONLY_STAGE
                },
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload = {
            "version": STORE_FORMAT_VERSION,
            "crc32": zlib.crc32(body),
            "body": body,
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        _fsync_directory(target.parent)
        return target

    def persist(self) -> Path | None:
        """Save to ``self.path`` when the store has one.

        The CLI calls this after a command's work and the service at a
        clean stop.  A write the filesystem refuses warns, naming the
        path, instead of raising: the store is a cache, and failing to
        keep it must not cost the caller the results it just computed.
        """
        if self.path is None:
            return None
        try:
            return self.save()
        except OSError as exc:
            warnings.warn(
                f"could not save result store {self.path}: "
                f"{exc.strerror or exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def load(self, path: str | Path) -> None:
        """Replace the store's contents with a previously saved store.

        A persisted store is a cache, never the only copy of anything —
        so nothing that goes wrong here is fatal: the store warns and
        starts empty.  A path that cannot be read as a file (missing, a
        directory, unreadable) and a store of another format version
        are left where they are.  Bytes that were read but do not
        decode — a garbled or truncated pickle, a CRC mismatch, a
        payload of the wrong shape — are **quarantined** (renamed to
        ``<name>.corrupt``) so they survive for inspection while the
        next :meth:`save` starts clean.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._start_empty(f"result store {path} does not exist")
            return
        except OSError as exc:
            self._start_empty(
                f"result store {path} cannot be read ({exc.strerror or exc})"
            )
            return
        try:
            state = _decode(data)
        except _StaleFormat as stale:
            self._start_empty(
                f"result store {path} has format version "
                f"{stale.version!r}, expected {STORE_FORMAT_VERSION}; "
                "discarding it"
            )
            return
        except Exception as exc:  # truncated/garbled bytes, wrong shape
            quarantine = self._quarantine(path)
            where = f" (quarantined as {quarantine})" if quarantine else ""
            self._start_empty(
                f"result store {path} is corrupt ({exc!r}); "
                f"starting empty{where}"
            )
            return
        self._entries = state["entries"]
        self._hits = state["hits"]
        self._misses = state["misses"]
        self._evictions = state["evictions"]
        # A persisted store larger than this instance's cap trims down
        # immediately (oldest-persisted first) instead of exceeding it.
        self._evict_over_cap()

    def _start_empty(self, message: str) -> None:
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        self.clear()

    @staticmethod
    def _quarantine(path: Path) -> Path | None:
        """Move a corrupt store aside; best effort, never raises."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        return target


def _env_max_entries() -> int | None:
    """Parse ``REPRO_RESULT_STORE_MAX`` (unset/empty = unbounded)."""
    raw = os.environ.get(STORE_MAX_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
        if value < 1:
            raise ValueError(value)
    except ValueError:
        warnings.warn(
            f"ignoring {STORE_MAX_ENV}={raw!r}: expected a positive "
            "integer entry cap",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value


def default_store() -> ResultStore:
    """Build the process-wide store, honouring ``REPRO_RESULT_STORE``
    (persistence path; unset or empty = memory only) and
    ``REPRO_RESULT_STORE_MAX`` (LRU entry cap)."""
    return ResultStore(
        path=os.environ.get(STORE_PATH_ENV) or None,
        max_entries=_env_max_entries(),
    )


#: The process-wide store every stage uses unless handed another one.
#: Constructed — and its ``REPRO_RESULT_STORE`` pickle loaded — on first
#: attribute access (PEP 562), never at import time: this module is
#: imported by :mod:`repro.sim.stages` before the stage dataclasses
#: exist, so an import-time load would unpickle ``CacheDesign`` from
#: a partially initialized module and quarantine a perfectly good store
#: on every warm restart.
RESULT_STORE: ResultStore


def __getattr__(name: str) -> Any:
    if name == "RESULT_STORE":
        store = default_store()
        globals()["RESULT_STORE"] = store
        return store
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
