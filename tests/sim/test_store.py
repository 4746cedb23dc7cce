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

    def test_none_is_a_value_that_persists(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), None)
        store.save()
        fresh = ResultStore(path)
        assert ("k",) in fresh
        assert fresh.get(("k",), "absent") is None

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
            entries = pickle.loads(pickle.load(handle)["body"])["entries"]
        stages = Counter(key[0] for key in entries)
        assert "workload" not in stages
        assert stages["chunk-stats"] == 16

        warm = self._run(store, "warm", "fig12")
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold.stdout
        warm = self._run(store, "warm", "fig13")
        assert warm.returncode == 0, warm.stderr
        assert json.loads(warm.stdout) == fig13_last_value.run(num_blocks=200)

    def test_a_store_holding_samples_is_discarded(self, tmp_path):
        """A version-2 store, written while samples were still
        persisted, is discarded whole and left in place: no old sample
        is ever served, and the engine draws the sample afresh."""
        import pickle

        from repro.sim.engine import StagedEngine
        from repro.sim.stages import sample_workload, workload_key
        from repro.workloads.profiles import profile

        app = profile("FFT")
        sample_key = workload_key(app, 8, 0)
        path = tmp_path / "store.pkl"
        payload = {
            "version": 2,
            "entries": {sample_key: sample_workload(app, 8, 0), ("k",): 1},
            "hits": 2, "misses": 3, "evictions": 0,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="format version 2"):
            store = ResultStore(path)
        assert store.stats() == StoreStats(hits=0, misses=0, size=0)
        assert store.get(sample_key) is None
        assert path.exists()
        assert not (tmp_path / "store.pkl.corrupt").exists()
        sample = StagedEngine(store).workload(app, 8, 0)
        assert sample.num_blocks == 8
        assert store.misses == 1
        store.save()
        assert list(ResultStore(path)) == []


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

    def test_crc_mismatch_quarantined(self, tmp_path):
        """A flipped byte inside the pickled entries fails the CRC
        before anything is unpickled."""
        path = tmp_path / "store.pkl"
        good = ResultStore(path)
        good.put(("k",), b"intact-value")
        good.save()
        data = bytearray(path.read_bytes())
        data[data.index(b"intact-value")] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="CRC32 mismatch"):
            store = ResultStore(path)
        assert len(store) == 0
        assert (tmp_path / "store.pkl.corrupt").read_bytes() == bytes(data)

    def test_unreadable_path_left_in_place(self, tmp_path):
        """A path that cannot be read as a file warns and starts empty;
        nothing is renamed, since no bytes were read."""
        directory = tmp_path / "store.pkl"
        directory.mkdir()
        with pytest.warns(RuntimeWarning, match="cannot be read"):
            store = ResultStore(directory)
        assert len(store) == 0
        assert directory.is_dir()
        assert not (tmp_path / "store.pkl.corrupt").exists()


class TestCrashSafety:
    """Satellite guarantee: ``save`` is atomic.  A process killed in
    the middle of writing can never leave a truncated store behind —
    the previous good file survives untouched."""

    KILLER = textwrap.dedent(
        """
        import os, signal, sys
        from repro.sim.store import ResultStore

        def die(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        class Bomb:
            '''SIGKILLs the process while save() pickles the entries.'''
            def __reduce__(self):
                die()
                return (int, (0,))  # unreachable

        store = ResultStore(sys.argv[1])
        store.put(("padding",), list(range(10000)))  # fill the buffer
        if sys.argv[2] == "pickling":
            store.put(("bomb",), Bomb())
        else:  # the temp file is written; die before the rename
            os.fsync = die
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
        for crash_point in ("pickling", "rename"):
            proc = subprocess.run(
                [sys.executable, "-c", self.KILLER, str(path), crash_point],
                env=env, capture_output=True,
            )
            assert proc.returncode == -9, crash_point  # SIGKILL landed

            # The target was never replaced: byte-identical to the good
            # save, and the next load sees the old entries with no
            # quarantine (a half-written temp file is not the store).
            assert path.read_bytes() == before, crash_point
            fresh = ResultStore(path)
            assert fresh.get(("survivor",)) == 42, crash_point
            assert not (tmp_path / "store.pkl.corrupt").exists()
        assert len(list(tmp_path.glob("store.pkl*.tmp"))) == 1

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

    def test_save_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
        self, tmp_path, monkeypatch
    ):
        import stat

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append(("fsync", "dir" if stat.S_ISDIR(mode) else "file"))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.path.basename(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store = ResultStore(tmp_path / "store.pkl")
        store.put(("k",), 1)
        store.save()
        assert events == [
            ("fsync", "file"), ("replace", "store.pkl"), ("fsync", "dir"),
        ]


class TestPersist:
    """``persist`` is the save the CLI and the service make: it never
    raises for a write the filesystem refuses."""

    def test_a_store_without_a_path_saves_nothing(self):
        assert ResultStore().persist() is None

    def test_saves_to_the_store_path(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), 1)
        assert store.persist() == path
        assert ResultStore(path).get(("k",)) == 1

    def test_a_refused_write_warns_naming_the_path(self, tmp_path):
        import re

        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "store.pkl"
        store = ResultStore(path)
        store.put(("k",), 1)
        with pytest.warns(
            RuntimeWarning,
            match=f"could not save result store {re.escape(str(path))}",
        ):
            assert store.persist() is None
        assert blocker.read_text() == ""
        assert list(tmp_path.iterdir()) == [blocker]


class TestCorruptionOracle:
    """Every single-byte flip and every truncation of a saved store.

    The oracle shares no code with the store's checks: it knows only
    the entries that were saved and where their value bytes sit in the
    file.  Loading must either return exactly the saved entries, or
    warn and start empty; it never raises and never holds a value that
    differs from a saved one.  A flip inside a stored value, and any
    truncation, must leave a ``.corrupt`` file.
    """

    SAVED = {("run", i): b"value-%04d" % i * 2 for i in range(4)}

    def _save(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        for key, value in self.SAVED.items():
            store.put(key, value)
        store.save()
        return path, path.read_bytes()

    @staticmethod
    def _load(path, data):
        """Write ``data`` at ``path`` and load it; returns the entries,
        whether a RuntimeWarning was raised, and whether a
        ``.corrupt`` file appeared."""
        import warnings

        quarantine = path.with_name(path.name + ".corrupt")
        quarantine.unlink(missing_ok=True)
        path.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = ResultStore(path)
        entries = {key: store.get(key) for key in list(store)}
        warned = any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )
        return entries, warned, quarantine.exists()

    def test_every_byte_flip_loads_exactly_or_starts_empty(self, tmp_path):
        path, data = self._save(tmp_path)
        value_bytes = set()
        for value in self.SAVED.values():
            assert data.count(value) == 1
            start = data.index(value)
            value_bytes.update(range(start, start + len(value)))
        for position in range(len(data)):
            for mask in (0x01, 0xFF):
                flipped = bytearray(data)
                flipped[position] ^= mask
                entries, warned, quarantined = self._load(
                    path, bytes(flipped)
                )
                where = f"byte {position} ^ {mask:#x}"
                if entries:
                    assert entries == self.SAVED, where
                else:
                    assert warned, where
                if position in value_bytes:
                    assert not entries and quarantined, where

    def test_every_truncation_is_quarantined(self, tmp_path):
        path, data = self._save(tmp_path)
        for length in range(len(data)):
            entries, warned, quarantined = self._load(path, data[:length])
            assert not entries and warned and quarantined, length

    def test_the_intact_file_loads_exactly(self, tmp_path):
        path, data = self._save(tmp_path)
        assert self._load(path, data) == (self.SAVED, False, False)


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

    def test_empty_path_env_means_memory_only(self, monkeypatch, tmp_path):
        import warnings

        from repro.sim.store import STORE_PATH_ENV, default_store

        monkeypatch.setenv(STORE_PATH_ENV, "")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = default_store()
            assert store.path is None
            assert store.persist() is None
        assert list(tmp_path.iterdir()) == []

    def test_invalid_env_warns_and_ignores(self, monkeypatch):
        from repro.sim.store import STORE_MAX_ENV, default_store

        for bad in ("zero", "0", "-4"):
            monkeypatch.setenv(STORE_MAX_ENV, bad)
            with pytest.warns(RuntimeWarning, match=STORE_MAX_ENV):
                store = default_store()
            assert store.max_entries is None
