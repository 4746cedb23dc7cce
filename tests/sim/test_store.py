"""Tests for the unified result store."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.sim.store import ResultStore, StoreStats


class TestLookup:
    def test_miss_then_hit(self):
        store = ResultStore()
        calls = []
        value = store.get_or_compute(("k", 1), lambda: calls.append(1) or 42)
        assert value == 42
        assert store.get_or_compute(("k", 1), lambda: calls.append(1) or 42) == 42
        assert calls == [1]  # computed exactly once
        assert store.hits == 1
        assert store.misses == 1

    def test_distinct_keys_distinct_entries(self):
        store = ResultStore()
        store.put(("a",), 1)
        store.put(("b",), 2)
        assert store.get(("a",)) == 1
        assert store.get(("b",)) == 2
        assert len(store) == 2

    def test_get_default_on_absent(self):
        store = ResultStore()
        assert store.get(("missing",)) is None
        assert store.get(("missing",), default=7) == 7
        assert store.misses == 0  # peeking does not count a miss

    def test_contains_and_iter(self):
        store = ResultStore()
        store.put(("x",), 1)
        assert ("x",) in store
        assert ("y",) not in store
        assert list(store) == [("x",)]


class TestStats:
    def test_stats_snapshot(self):
        store = ResultStore()
        store.get_or_compute(("k",), lambda: 1)
        store.get_or_compute(("k",), lambda: 1)
        store.get_or_compute(("k",), lambda: 1)
        stats = store.stats()
        assert stats == StoreStats(hits=2, misses=1, size=1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_idle_hit_rate_zero(self):
        assert ResultStore().stats().hit_rate == 0.0

    def test_clear_resets_everything(self):
        store = ResultStore()
        store.get_or_compute(("k",), lambda: 1)
        store.get_or_compute(("k",), lambda: 1)
        store.clear()
        assert len(store) == 0
        assert store.stats() == StoreStats(hits=0, misses=0, size=0)


class TestPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore()
        store.get_or_compute(("k", 1), lambda: {"deep": [1, 2, 3]})
        store.get_or_compute(("k", 1), lambda: None)
        store.save(path)

        fresh = ResultStore(path)
        assert fresh.get(("k", 1)) == {"deep": [1, 2, 3]}
        # Counters persist so multi-invocation statistics accumulate.
        assert fresh.misses == 1
        assert fresh.hits >= 1

    def test_default_path_used_by_save(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), 1)
        assert store.save() == path
        assert path.exists()

    def test_save_without_path_rejected(self):
        with pytest.raises(ValueError, match="no path"):
            ResultStore().save()

    def test_missing_file_starts_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.pkl")
        assert len(store) == 0

    def test_save_writes_format_version(self, tmp_path):
        import pickle

        from repro.sim.store import STORE_FORMAT_VERSION

        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), 1)
        store.save()
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["version"] == STORE_FORMAT_VERSION


class TestWarmRestart:
    """Regression: the global store must construct (and load) lazily.

    ``repro.sim.stages`` imports this module for ``StoreKey`` before
    its stage dataclasses exist, so an import-time load of the
    ``REPRO_RESULT_STORE`` pickle used to unpickle a stage dataclass
    such as ``CacheDesign`` from the partially initialized module —
    quarantining a perfectly good store on every warm restart.
    """

    SEED = textwrap.dedent(
        """
        import sys
        from repro.sim.config import SystemConfig
        from repro.sim.stages import cache_design_key, design_cache
        from repro.sim.store import ResultStore

        system = SystemConfig()
        store = ResultStore(sys.argv[1])
        store.put(cache_design_key(system, 128, 0), design_cache(system, 128, 0))
        store.save()
        """
    )

    PROBE = textwrap.dedent(
        """
        import warnings
        warnings.simplefilter("error")  # any quarantine warning fails

        import repro.sim  # the failing order: stages mid-import chain
        from repro.sim.store import RESULT_STORE

        assert RESULT_STORE.stats().size == 1, RESULT_STORE.stats()
        """
    )

    def test_env_store_survives_a_warm_restart(self, tmp_path):
        path = tmp_path / "warm.pkl"
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        cold = subprocess.run(
            [sys.executable, "-c", self.SEED, str(path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert cold.returncode == 0, cold.stderr
        warm = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=dict(
                os.environ, PYTHONPATH=src, REPRO_RESULT_STORE=str(path)
            ),
            capture_output=True, text=True,
        )
        assert warm.returncode == 0, warm.stderr
        assert path.exists()
        assert not (tmp_path / "warm.pkl.corrupt").exists()


class TestSamplesStayInMemory:
    """Workload samples are never persisted, while everything derived
    from them is: a warm run draws no sample at all."""

    RUN = textwrap.dedent(
        """
        import sys
        from repro.cli import main

        if sys.argv[1] == "warm":
            from repro.kernels import pipeline
            from repro.sim import stages

            def refuse(*args, **kwargs):
                raise AssertionError("a warm run drew a block sample")

            stages.sample_workload = refuse
            pipeline.block_assemble = refuse
        sys.exit(main(sys.argv[2:]))
        """
    )

    @classmethod
    def _run(cls, store, mode, figure):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        return subprocess.run(
            [sys.executable, "-c", cls.RUN, mode,
             "run", figure, "--sample-blocks", "200", "--json"],
            env=dict(os.environ, PYTHONPATH=src, REPRO_RESULT_STORE=str(store)),
            capture_output=True, text=True, timeout=300,
        )

    def test_warm_figure_runs_read_the_saved_statistics(self, tmp_path):
        import json
        import pickle
        from collections import Counter

        from repro.experiments import fig13_last_value

        store = tmp_path / "store.pkl"
        cold = self._run(store, "cold", "fig12")
        assert cold.returncode == 0, cold.stderr
        with open(store, "rb") as handle:
            entries = pickle.load(handle)["entries"]
        stages = Counter(key[0] for key in entries)
        assert "workload" not in stages
        assert stages["chunk-stats"] == 16

        warm = self._run(store, "warm", "fig12")
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold.stdout
        warm = self._run(store, "warm", "fig13")
        assert warm.returncode == 0, warm.stderr
        assert json.loads(warm.stdout) == fig13_last_value.run(num_blocks=200)

    def test_a_store_holding_samples_still_loads(self, tmp_path):
        """A version-2 store written while samples were still persisted
        loads without them: a sample is never served from disk."""
        import pickle
        import warnings

        from repro.sim.stages import sample_workload, workload_key
        from repro.sim.store import STORE_FORMAT_VERSION
        from repro.workloads.profiles import profile

        app = profile("FFT")
        sample_key = workload_key(app, 8, 0)
        path = tmp_path / "store.pkl"
        payload = {
            "version": STORE_FORMAT_VERSION,
            "entries": {sample_key: sample_workload(app, 8, 0), ("k",): 1},
            "hits": 2, "misses": 3, "evictions": 0,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(path)
        assert store.stats() == StoreStats(hits=2, misses=3, size=1)
        assert sample_key not in store
        assert store.get(sample_key) is None
        assert list(store) == [("k",)]
        store.save()
        assert list(ResultStore(path)) == [("k",)]

    def test_a_warehouse_never_serves_a_sample(self, tmp_path):
        """A sample record an older release appended to a warehouse is
        skipped on read; the sample is drawn again."""
        from repro.sim.engine import StagedEngine
        from repro.sim.stages import workload_key
        from repro.sim.warehouse import SegmentWarehouse
        from repro.workloads.profiles import profile

        app = profile("FFT")
        key = workload_key(app, 8, 0)
        warehouse = SegmentWarehouse(tmp_path / "wh")
        warehouse.put(key, "an older sample")
        warehouse.flush()
        store = ResultStore(warehouse=SegmentWarehouse(tmp_path / "wh"))
        assert key not in store
        assert store.get(key) is None
        sample = StagedEngine(store).workload(app, 8, 0)
        assert sample.num_blocks == 8
        assert store.misses == 1


class TestGracefulLoad:
    """Satellite guarantee: a broken persisted store warns and starts
    empty — it never crashes a run or silently feeds bad entries."""

    def test_corrupt_pickle_quarantined(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(b"not a pickle at all")
        store = ResultStore()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            store.load(path)
        assert len(store) == 0
        assert not path.exists()
        quarantined = tmp_path / "store.pkl.corrupt"
        assert quarantined.read_bytes() == b"not a pickle at all"

    def test_truncated_pickle_quarantined(self, tmp_path):
        path = tmp_path / "store.pkl"
        good = ResultStore(path)
        good.put(("k",), list(range(1000)))
        good.save()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            store = ResultStore(path)
        assert len(store) == 0
        assert (tmp_path / "store.pkl.corrupt").exists()

    def test_wrong_shape_payload_quarantined(self, tmp_path):
        import pickle

        path = tmp_path / "store.pkl"
        with open(path, "wb") as handle:
            pickle.dump(["unexpected", "payload"], handle)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            store = ResultStore(path)
        assert len(store) == 0

    def test_entries_of_the_wrong_shape_quarantined(self, tmp_path):
        """Entries that are not a key-to-value mapping make the store
        corrupt; loading it never raises."""
        import pickle

        from repro.sim.store import STORE_FORMAT_VERSION

        path = tmp_path / "store.pkl"
        payload = {"version": STORE_FORMAT_VERSION, "entries": ["k", 1],
                   "hits": 0, "misses": 0}
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            store = ResultStore(path)
        assert len(store) == 0
        assert (tmp_path / "store.pkl.corrupt").exists()

    def test_version_mismatch_discarded_not_quarantined(self, tmp_path):
        """An old-format store is valid data, just stale: discard it
        with a warning, but don't treat it as corruption."""
        import pickle

        path = tmp_path / "store.pkl"
        payload = {"version": 1, "entries": {("k",): 1},
                   "hits": 3, "misses": 2}
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="format version"):
            store = ResultStore(path)
        assert len(store) == 0
        assert path.exists()  # left in place for inspection
        assert not (tmp_path / "store.pkl.corrupt").exists()

    def test_versionless_legacy_store_discarded(self, tmp_path):
        import pickle

        path = tmp_path / "store.pkl"
        payload = {"entries": {("k",): 1}, "hits": 0, "misses": 1}
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="format version"):
            store = ResultStore(path)
        assert len(store) == 0

    def test_explicit_load_of_missing_file_warns(self, tmp_path):
        store = ResultStore()
        store.put(("stale",), 1)
        with pytest.warns(RuntimeWarning, match="does not exist"):
            store.load(tmp_path / "absent.pkl")
        assert len(store) == 0

    def test_save_after_quarantine_round_trips(self, tmp_path):
        """The recovery path end-to-end: corrupt load, fresh compute,
        clean save, clean reload."""
        path = tmp_path / "store.pkl"
        path.write_bytes(b"\x80garbage")
        with pytest.warns(RuntimeWarning):
            store = ResultStore(path)
        store.get_or_compute(("k",), lambda: 7)
        store.save()
        fresh = ResultStore(path)
        assert fresh.get(("k",)) == 7


class TestCrashSafety:
    """Satellite guarantee: ``save`` is atomic.  A process killed in
    the middle of writing can never leave a truncated store behind —
    the previous good file survives untouched."""

    KILLER = textwrap.dedent(
        """
        import os, signal, sys
        from repro.sim.store import ResultStore

        class Bomb:
            '''Pickles partway, then SIGKILLs the process: a crash in
            the middle of save()'s temp-file write.'''
            def __reduce__(self):
                os.kill(os.getpid(), signal.SIGKILL)
                return (int, (0,))  # unreachable

        store = ResultStore(sys.argv[1])
        store.put(("padding",), list(range(10000)))  # fill the buffer
        store.put(("bomb",), Bomb())
        store.save()
        """
    )

    def test_kill_mid_save_preserves_the_previous_store(self, tmp_path):
        path = tmp_path / "store.pkl"
        good = ResultStore(path)
        good.put(("survivor",), 42)
        good.save()
        before = path.read_bytes()

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.KILLER, str(path)],
            env=env, capture_output=True,
        )
        assert proc.returncode == -9  # SIGKILL landed mid-save

        # The target was never replaced: byte-identical to the good
        # save, and the next load sees the old entries with no
        # quarantine (the half-written temp file is not the store).
        assert path.read_bytes() == before
        fresh = ResultStore(path)
        assert fresh.get(("survivor",)) == 42
        assert not (tmp_path / "store.pkl.corrupt").exists()

    def test_save_failure_cleans_up_its_temp_file(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("refuses to pickle")

        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), Unpicklable())
        with pytest.raises(RuntimeError, match="refuses"):
            store.save()
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestLRUCap:
    """Satellite guarantee: a capped store evicts least-recently-used
    entries, counts every eviction, and reads its cap from the
    environment for the process-wide store."""

    def test_cap_evicts_oldest_first(self):
        store = ResultStore(max_entries=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.put(("c",), 3)
        assert ("a",) not in store
        assert store.get(("b",)) == 2
        assert store.get(("c",)) == 3
        assert store.evictions == 1

    def test_hit_refreshes_recency(self):
        store = ResultStore(max_entries=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        assert store.get(("a",)) == 1  # touch: "a" is now most recent
        store.put(("c",), 3)
        assert ("b",) not in store
        assert ("a",) in store

    def test_get_or_compute_hit_refreshes_recency(self):
        store = ResultStore(max_entries=2)
        store.get_or_compute(("a",), lambda: 1)
        store.get_or_compute(("b",), lambda: 2)
        store.get_or_compute(("a",), lambda: 1)  # hit, refresh
        store.get_or_compute(("c",), lambda: 3)
        assert ("a",) in store
        assert ("b",) not in store

    def test_overwrite_does_not_evict(self):
        store = ResultStore(max_entries=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.put(("a",), 10)  # overwrite, still 2 entries
        assert len(store) == 2
        assert store.evictions == 0
        assert store.get(("a",)) == 10

    def test_stats_carry_cap_and_evictions(self):
        store = ResultStore(max_entries=1)
        store.put(("a",), 1)
        store.put(("b",), 2)
        stats = store.stats()
        assert stats.evictions == 1
        assert stats.max_entries == 1
        assert stats.size == 1

    def test_uncapped_store_reports_none(self):
        stats = ResultStore().stats()
        assert stats.max_entries is None
        assert stats.evictions == 0

    def test_clear_resets_evictions(self):
        store = ResultStore(max_entries=1)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.clear()
        assert store.evictions == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultStore(max_entries=0)

    def test_evictions_persist(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore(path, max_entries=1)
        store.put(("a",), 1)
        store.put(("b",), 2)
        store.save()
        fresh = ResultStore(path)
        assert fresh.stats().evictions == 1

    def test_load_trims_to_cap(self, tmp_path):
        path = tmp_path / "store.pkl"
        big = ResultStore(path)
        for i in range(5):
            big.put(("k", i), i)
        big.save()
        small = ResultStore(path, max_entries=2)
        assert len(small) == 2
        assert small.evictions == 3
        # The most recently inserted entries survive the trim.
        assert ("k", 3) in small and ("k", 4) in small


class TestEnvCap:
    def test_default_store_reads_env_cap(self, monkeypatch):
        from repro.sim.store import STORE_MAX_ENV, default_store

        monkeypatch.setenv(STORE_MAX_ENV, "3")
        store = default_store()
        assert store.max_entries == 3

    def test_unset_env_means_unbounded(self, monkeypatch):
        from repro.sim.store import STORE_MAX_ENV, default_store

        monkeypatch.delenv(STORE_MAX_ENV, raising=False)
        assert default_store().max_entries is None

    def test_invalid_env_warns_and_ignores(self, monkeypatch):
        from repro.sim.store import STORE_MAX_ENV, default_store

        for bad in ("zero", "0", "-4"):
            monkeypatch.setenv(STORE_MAX_ENV, bad)
            with pytest.warns(RuntimeWarning, match=STORE_MAX_ENV):
                store = default_store()
            assert store.max_entries is None
