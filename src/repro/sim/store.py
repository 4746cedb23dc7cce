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
  (CLI invocations, pool workers) share expensive stage outputs.

Keys are plain tuples of hashables, built by each stage's ``*_key``
function in :mod:`repro.sim.stages`; the leading element names the
stage so one store can hold every stage's results without collisions.

Workload samples (:data:`MEMORY_ONLY_STAGE`) stay in memory: neither
the pickle file nor the warehouse tier receives them, and neither is
ever read for one, so a sample is always drawn fresh.  Everything
derived from a sample — transfer statistics, chunk statistics, whole
runs — persists, so a warm re-run reads its results without redrawing
any sample.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator

from repro.sim.warehouse import SegmentWarehouse

__all__ = ["ResultStore", "StoreStats", "RESULT_STORE", "default_store"]

#: Environment variable naming a pickle file the global store persists to.
STORE_PATH_ENV = "REPRO_RESULT_STORE"

#: Environment variable capping the global store's entry count (LRU).
STORE_MAX_ENV = "REPRO_RESULT_STORE_MAX"

#: Environment variable naming the warehouse directory for the global
#: store's disk tier (unset = memory-only).
WAREHOUSE_ENV = "REPRO_WAREHOUSE"

#: Format of the persisted payload.  Bumped whenever the pickle layout
#: (or the meaning of stored entries) changes incompatibly; a store
#: written under any other version is discarded with a warning instead
#: of being misread.
STORE_FORMAT_VERSION = 2

StoreKey = tuple[Hashable, ...]

#: Leading key element (``stages.workload_key``) of the stage whose
#: entries are never persisted: :meth:`ResultStore.save` skips them and
#: the warehouse tier never receives them.  A workload sample is about
#: 100x the bytes of everything derived from it, and redrawing one
#: takes about 10 ms.
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
        disk_hits: Lookups served by the warehouse tier (0 when the
            store has no warehouse).
        promotions: Warehouse reads promoted into the memory LRU.
        warehouse_segments: Segment files in the warehouse tier.
        warehouse_bytes: Total bytes across warehouse segments.
    """

    hits: int
    misses: int
    size: int
    evictions: int = 0
    max_entries: int | None = None
    disk_hits: int = 0
    promotions: int = 0
    warehouse_segments: int = 0
    warehouse_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultStore:
    """A keyed cache with hit/miss counters and optional persistence.

    Args:
        path: When given, the store loads any existing pickle at that
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
            service's ``/metrics`` instead of silently thrashing.
        warehouse: The durable disk tier beneath the memory LRU: a
            :class:`~repro.sim.warehouse.SegmentWarehouse`, or a
            directory path to open one at.  Lookups read through to it
            (a warehouse hit is **promoted** into memory), writes
            other than workload samples go write-behind into its
            append-only segments, and a restarted process pointed at
            the same directory warm-starts its cache.  ``None`` (the
            default) keeps the store memory-only.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        max_entries: int | None = None,
        warehouse: SegmentWarehouse | str | Path | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self._entries: dict[StoreKey, Any] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._promotions = 0
        self.max_entries = max_entries
        if warehouse is None or isinstance(warehouse, SegmentWarehouse):
            self.warehouse = warehouse
        else:
            self.warehouse = SegmentWarehouse(warehouse)
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_or_compute(self, key: StoreKey, compute: Callable[[], Any]) -> Any:
        """Return the stored value for ``key``, computing it on a miss.

        Lookup order: the memory LRU, then the warehouse tier (a disk
        hit counts as a store hit and the entry is promoted into
        memory), then ``compute``.
        """
        try:
            value = self._entries[key]
        except KeyError:
            promoted = self._promote(key)
            if promoted is not _ABSENT:
                return promoted
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
        if value is not _ABSENT:
            self._hits += 1
            self._touch(key)
            return value
        promoted = self._promote(key)
        if promoted is not _ABSENT:
            return promoted
        return default

    def put(self, key: StoreKey, value: Any) -> None:
        """Insert (or overwrite) an entry, evicting LRU ones over the cap.

        With a warehouse attached, the entry also lands (write-behind,
        append-once) in the disk tier, so it survives both LRU eviction
        and process restart — unless it is a workload sample.
        """
        self._entries.pop(key, None)  # re-insert at the recent end
        self._entries[key] = value
        if self.warehouse is not None and key[0] != MEMORY_ONLY_STAGE:
            self.warehouse.put(key, value)
        self._evict_over_cap()

    def _promote(self, key: StoreKey) -> Any:
        """Read ``key`` through to the warehouse, promoting a hit into
        the memory LRU; returns ``_ABSENT`` on a true miss.

        Workload samples are never read from the warehouse, so a sample
        an older release wrote there is redrawn, not served.
        """
        if (
            self.warehouse is None
            or key[0] == MEMORY_ONLY_STAGE
            or key not in self.warehouse
        ):
            return _ABSENT
        value = self.warehouse.get(key, _ABSENT)
        if value is _ABSENT:
            return _ABSENT
        self._hits += 1
        self._promotions += 1
        self.put(key, value)
        return value

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
        if key in self._entries:
            return True
        return (
            self.warehouse is not None
            and key[0] != MEMORY_ONLY_STAGE
            and key in self.warehouse
        )

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
        """A snapshot of the store's counters (and the warehouse's)."""
        disk_hits = 0
        warehouse_segments = 0
        warehouse_bytes = 0
        if self.warehouse is not None:
            wh = self.warehouse.stats()
            disk_hits = wh.disk_hits
            warehouse_segments = wh.segment_count
            warehouse_bytes = wh.segment_bytes
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self),
            evictions=self._evictions,
            max_entries=self.max_entries,
            disk_hits=disk_hits,
            promotions=self._promotions,
            warehouse_segments=warehouse_segments,
            warehouse_bytes=warehouse_bytes,
        )

    def clear(self) -> None:
        """Drop every memory entry and reset the counters.

        The warehouse tier is durable by design and is *not* cleared —
        it is the thing that survives restarts.
        """
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._promotions = 0

    def flush(self) -> None:
        """Flush the warehouse tier's write-behind buffer (if any)."""
        if self.warehouse is not None:
            self.warehouse.flush()

    def scrub(self) -> dict:
        """Re-verify the warehouse tier's records, repairing corrupt
        ones from the memory LRU where it still holds the value.

        Returns the warehouse's scrub report (all-zero counts for a
        memory-only store); see
        :meth:`~repro.sim.warehouse.SegmentWarehouse.scrub`.
        """
        if self.warehouse is None:
            return {"scanned": 0, "corrupt": 0, "repaired": 0, "lost": 0}
        return self.warehouse.scrub(repair=self._entries)

    def compact(self) -> dict:
        """Compact the warehouse tier's segments (no-op when
        memory-only); see
        :meth:`~repro.sim.warehouse.SegmentWarehouse.compact`."""
        if self.warehouse is None:
            return {"records": 0, "segments_before": 0,
                    "segments_after": 0, "reclaimed": 0}
        return self.warehouse.compact()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Pickle the entries and counters to ``path`` (or ``self.path``).

        Workload samples are left out (:data:`MEMORY_ONLY_STAGE`).  The
        write is atomic (temp file + rename) so a crashed run never
        leaves a truncated store behind.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the store has no default path")
        payload = {
            "version": STORE_FORMAT_VERSION,
            "entries": {
                key: value for key, value in self._entries.items()
                if key[0] != MEMORY_ONLY_STAGE
            },
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self.flush()
        return target

    def load(self, path: str | Path) -> None:
        """Replace the store's contents with a previously saved pickle.

        A persisted store is a cache, never the only copy of anything —
        so nothing that goes wrong here is fatal.  Workload samples an
        older release persisted are dropped: a sample is always drawn
        fresh, in the form the current stages read.  A missing file or a
        stale format version empties the store with a warning; a
        corrupt or truncated pickle is additionally **quarantined**
        (renamed to ``<name>.corrupt``) so the broken bytes survive for
        inspection while the next :meth:`save` starts clean.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict):
                raise TypeError(f"payload is {type(payload).__name__}, not dict")
            entries = {
                key: value for key, value in payload["entries"].items()
                if key[0] != MEMORY_ONLY_STAGE
            }
            hits = payload["hits"]
            misses = payload["misses"]
        except FileNotFoundError:
            warnings.warn(
                f"result store {path} does not exist; starting empty",
                RuntimeWarning,
                stacklevel=2,
            )
            self.clear()
            return
        except Exception as exc:  # truncated/garbled pickle, wrong shape
            quarantine = self._quarantine(path)
            where = f" (quarantined as {quarantine})" if quarantine else ""
            warnings.warn(
                f"result store {path} is corrupt ({exc!r}); "
                f"starting empty{where}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.clear()
            return
        version = payload.get("version")
        if version != STORE_FORMAT_VERSION:
            warnings.warn(
                f"result store {path} has format version {version!r}, "
                f"expected {STORE_FORMAT_VERSION}; discarding it",
                RuntimeWarning,
                stacklevel=2,
            )
            self.clear()
            return
        self._entries = entries
        self._hits = hits
        self._misses = misses
        # Older stores predate the eviction counter; start it at 0.
        self._evictions = payload.get("evictions", 0)
        # A persisted store larger than this instance's cap trims down
        # immediately (oldest-persisted first) instead of exceeding it.
        self._evict_over_cap()

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
    (persistence path), ``REPRO_RESULT_STORE_MAX`` (LRU entry cap), and
    ``REPRO_WAREHOUSE`` (disk-tier directory)."""
    return ResultStore(
        path=os.environ.get(STORE_PATH_ENV),
        max_entries=_env_max_entries(),
        warehouse=os.environ.get(WAREHOUSE_ENV) or None,
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
