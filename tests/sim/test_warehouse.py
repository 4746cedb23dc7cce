"""Tests for the append-only segment warehouse (the disk tier)."""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest

from repro.sim.store import STORE_FORMAT_VERSION, ResultStore
from repro.sim.warehouse import (
    _HEADER,
    _MAGIC,
    _RECORD,
    PAYLOAD_FORMAT_VERSION,
    SegmentWarehouse,
)


def test_payload_version_tracks_store_version():
    """The two tiers persist the same pickled values; their format
    versions are bumped together or not at all."""
    assert PAYLOAD_FORMAT_VERSION == STORE_FORMAT_VERSION


class TestRoundtrip:
    def test_put_flush_get(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k", 1), {"deep": [1, 2, 3]})
        warehouse.flush()
        assert warehouse.get(("k", 1)) == {"deep": [1, 2, 3]}
        assert ("k", 1) in warehouse
        assert len(warehouse) == 1

    def test_unflushed_put_is_still_readable(self, tmp_path):
        # Write-behind: the buffer answers before the disk does.
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k",), 42)
        assert warehouse.get(("k",)) == 42
        assert warehouse.stats().pending == 1

    def test_none_is_a_legitimate_value(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k",), None)
        warehouse.flush()
        assert warehouse.get(("k",), default="sentinel") is None

    def test_get_default_on_absent(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        assert warehouse.get(("missing",)) is None
        assert warehouse.get(("missing",), default=7) == 7
        assert warehouse.disk_hits == 0

    def test_append_once_semantics(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k",), "first")
        warehouse.flush()
        warehouse.put(("k",), "second")  # ignored: results are deterministic
        warehouse.flush()
        assert warehouse.get(("k",)) == "first"
        assert warehouse.stats().appends == 1

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="segment_max_bytes"):
            SegmentWarehouse(tmp_path, segment_max_bytes=0)
        with pytest.raises(ValueError, match="flush_every"):
            SegmentWarehouse(tmp_path, flush_every=0)


class TestWriteBehind:
    def test_flush_returns_record_count(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(5):
            warehouse.put(("k", i), i)
        assert warehouse.flush() == 5
        assert warehouse.flush() == 0  # nothing left to write
        assert warehouse.stats().pending == 0

    def test_auto_flush_at_threshold(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path, flush_every=3)
        warehouse.put(("k", 0), 0)
        warehouse.put(("k", 1), 1)
        assert warehouse.stats().pending == 2
        warehouse.put(("k", 2), 2)  # hits the threshold
        assert warehouse.stats().pending == 0
        assert warehouse.stats().appends == 3

    def test_segment_rollover_under_small_bound(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path, segment_max_bytes=256)
        for i in range(20):
            warehouse.put(("k", i), list(range(50)))
        warehouse.flush()
        stats = warehouse.stats()
        assert stats.segment_count > 1
        assert stats.entries == 20
        # Every record is still reachable across the segment set.
        for i in range(20):
            assert warehouse.get(("k", i)) == list(range(50))


class TestWarmRestart:
    def test_second_instance_reads_the_first_ones_records(self, tmp_path):
        first = SegmentWarehouse(tmp_path)
        for i in range(10):
            first.put(("k", i), {"i": i})
        first.flush()

        second = SegmentWarehouse(tmp_path)
        assert len(second) == 10
        for i in range(10):
            assert second.get(("k", i)) == {"i": i}

    def test_restart_appends_into_the_same_segment(self, tmp_path):
        first = SegmentWarehouse(tmp_path)
        first.put(("a",), 1)
        first.flush()

        second = SegmentWarehouse(tmp_path)
        second.put(("b",), 2)
        second.flush()
        assert second.stats().segment_count == 1

        third = SegmentWarehouse(tmp_path)
        assert third.get(("a",)) == 1
        assert third.get(("b",)) == 2

    def test_unflushed_records_do_not_survive(self, tmp_path):
        # Write-behind means durability starts at flush(), not put().
        first = SegmentWarehouse(tmp_path)
        first.put(("ghost",), 1)  # never flushed
        second = SegmentWarehouse(tmp_path)
        assert ("ghost",) not in second


class TestRecovery:
    def populated(self, tmp_path, entries=3):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(entries):
            warehouse.put(("k", i), list(range(100)))
        warehouse.flush()
        return sorted(tmp_path.glob("segment-*.seg"))[0]

    def test_torn_tail_truncated_to_last_good_record(self, tmp_path):
        segment = self.populated(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-37])  # crash mid-append

        with pytest.warns(RuntimeWarning, match="torn tail"):
            warehouse = SegmentWarehouse(tmp_path)
        # The two whole records survive; the torn third is gone.
        assert warehouse.get(("k", 0)) == list(range(100))
        assert warehouse.get(("k", 1)) == list(range(100))
        assert ("k", 2) not in warehouse
        # The tail was cut, so appending resumes cleanly.
        warehouse.put(("k", 2), "recomputed")
        warehouse.flush()
        clean = SegmentWarehouse(tmp_path)
        assert clean.get(("k", 2)) == "recomputed"

    def test_corrupted_record_crc_skipped_not_served(self, tmp_path):
        segment = self.populated(tmp_path)
        data = bytearray(segment.read_bytes())
        data[-10] ^= 0xFF  # flip a bit inside the last value
        segment.write_bytes(bytes(data))

        with pytest.warns(RuntimeWarning, match="corrupt record"):
            warehouse = SegmentWarehouse(tmp_path)
        assert ("k", 0) in warehouse and ("k", 1) in warehouse
        assert ("k", 2) not in warehouse
        assert warehouse.stats().corrupt_records == 1

    def test_mid_file_corruption_costs_one_record_not_the_rest(
        self, tmp_path
    ):
        """A byte flipped in the *middle* of a segment drops that
        record only; every complete record after it still serves."""
        segment = self.populated(tmp_path)
        clean = SegmentWarehouse(tmp_path)
        _, offset, key_len, _, _ = clean._index[("k", 1)]
        data = bytearray(segment.read_bytes())
        data[offset + 12 + key_len + 5] ^= 0xFF  # inside record 1's value
        segment.write_bytes(bytes(data))

        with pytest.warns(RuntimeWarning, match="corrupt record"):
            warehouse = SegmentWarehouse(tmp_path)
        assert warehouse.get(("k", 0)) == list(range(100))
        assert ("k", 1) not in warehouse
        assert warehouse.get(("k", 2)) == list(range(100))

    def test_bad_header_quarantined_as_corrupt(self, tmp_path):
        segment = self.populated(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(b"XXXXXXXX" + data[8:])

        with pytest.warns(RuntimeWarning, match="ignored"):
            warehouse = SegmentWarehouse(tmp_path)
        assert len(warehouse) == 0
        quarantined = segment.with_name(segment.name + ".corrupt")
        assert quarantined.exists()  # broken bytes kept for inspection
        assert not segment.exists()

    def test_stale_version_set_aside_not_corrupt(self, tmp_path):
        segment = self.populated(tmp_path)
        data = segment.read_bytes()
        old_header = _HEADER.pack(_MAGIC, PAYLOAD_FORMAT_VERSION - 1)
        segment.write_bytes(old_header + data[_HEADER.size:])

        with pytest.warns(RuntimeWarning, match="format version"):
            warehouse = SegmentWarehouse(tmp_path)
        assert len(warehouse) == 0
        # Stale data is valid under its own format: .stale, not .corrupt.
        assert segment.with_name(segment.name + ".stale").exists()
        assert not segment.with_name(segment.name + ".corrupt").exists()

    def test_recovery_then_fresh_writes_round_trip(self, tmp_path):
        segment = self.populated(tmp_path)
        segment.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("fresh",), 7)
        warehouse.flush()
        clean = SegmentWarehouse(tmp_path)
        assert clean.get(("fresh",)) == 7

    def test_unpicklable_key_blob_skipped_not_indexed(self, tmp_path):
        segment = self.populated(tmp_path, entries=1)
        # Append a record whose CRC is fine but whose key is garbage.
        key_blob = b"\x80not-a-pickle"
        val_blob = pickle.dumps(1)
        with open(segment, "ab") as handle:
            handle.write(
                _RECORD.pack(len(key_blob), len(val_blob),
                             zlib.crc32(key_blob + val_blob))
            )
            handle.write(key_blob)
            handle.write(val_blob)
        warehouse = SegmentWarehouse(tmp_path)
        assert len(warehouse) == 1  # the good record survives
        assert warehouse.stats().corrupt_records == 1


class TestStoreIntegration:
    """The ResultStore reads through to, and writes behind into, the
    warehouse tier."""

    def test_read_through_counts_hit_and_promotion(self, tmp_path):
        seed = ResultStore(warehouse=tmp_path)
        seed.put(("k",), 42)
        seed.flush()

        store = ResultStore(warehouse=tmp_path)
        assert store.get(("k",)) == 42  # served from disk
        stats = store.stats()
        assert stats.hits == 1
        assert stats.disk_hits == 1
        assert stats.promotions == 1
        # Promoted into memory: the second read never touches disk.
        assert store.get(("k",)) == 42
        assert store.stats().disk_hits == 1

    def test_get_or_compute_prefers_disk_over_compute(self, tmp_path):
        seed = ResultStore(warehouse=tmp_path)
        seed.put(("k",), "stored")
        seed.flush()

        store = ResultStore(warehouse=tmp_path)
        value = store.get_or_compute(
            ("k",), lambda: pytest.fail("computed despite a disk copy")
        )
        assert value == "stored"
        assert store.misses == 0

    def test_entry_survives_lru_eviction_via_warehouse(self, tmp_path):
        store = ResultStore(max_entries=1, warehouse=tmp_path)
        store.put(("a",), 1)
        store.put(("b",), 2)  # evicts ("a",) from memory
        store.flush()
        assert store.evictions == 1
        assert ("a",) in store  # still visible through the disk tier
        assert store.get(("a",)) == 1
        assert store.stats().promotions == 1

    def test_clear_keeps_the_durable_tier(self, tmp_path):
        store = ResultStore(warehouse=tmp_path)
        store.put(("k",), 1)
        store.flush()
        store.clear()
        assert len(store) == 0  # memory is empty...
        assert ("k",) in store  # ...but the warehouse still answers
        assert store.get(("k",)) == 1

    def test_save_flushes_the_warehouse(self, tmp_path):
        store = ResultStore(
            path=tmp_path / "store.pkl", warehouse=tmp_path / "wh"
        )
        store.put(("k",), 1)
        assert store.warehouse.stats().pending == 1
        store.save()
        assert store.warehouse.stats().pending == 0

    def test_workload_samples_stay_off_disk(self, tmp_path):
        """A run's sample is memory-only; the run result is written."""
        from repro.sim.config import SystemConfig, desc_scheme
        from repro.sim.engine import StagedEngine
        from repro.sim.stages import run_key, workload_key
        from repro.workloads.profiles import profile

        app, scheme = profile("FFT"), desc_scheme("zero")
        system = SystemConfig(sample_blocks=50)
        store = ResultStore(warehouse=tmp_path)
        StagedEngine(store).run(app, scheme, system)
        sample = workload_key(app, system.sample_blocks, system.seed)
        assert sample in store  # held in memory
        store.flush()

        on_disk = SegmentWarehouse(tmp_path)
        assert run_key(app, scheme, system) in on_disk
        assert sample not in on_disk
        assert all(key[0] != "workload" for key in on_disk)

    def test_warehouse_accepts_prebuilt_instance(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path, flush_every=1)
        store = ResultStore(warehouse=warehouse)
        store.put(("k",), 1)  # flush_every=1: flushed immediately
        fresh = ResultStore(warehouse=SegmentWarehouse(tmp_path))
        assert fresh.get(("k",)) == 1

    def test_memory_only_store_reports_zero_warehouse_stats(self):
        stats = ResultStore().stats()
        assert stats.disk_hits == 0
        assert stats.promotions == 0
        assert stats.warehouse_segments == 0
        assert stats.warehouse_bytes == 0

    def test_default_store_reads_warehouse_env(self, tmp_path, monkeypatch):
        from repro.sim.store import WAREHOUSE_ENV, default_store

        monkeypatch.setenv(WAREHOUSE_ENV, str(tmp_path / "wh"))
        assert default_store().warehouse is not None
        monkeypatch.setenv(WAREHOUSE_ENV, "")
        assert default_store().warehouse is None


def corrupt_value_byte(warehouse: SegmentWarehouse, key) -> None:
    """Flip one byte inside the stored value of ``key`` on disk."""
    path, offset, key_len, val_len, _ = warehouse._index[key]
    assert val_len >= 2
    data = bytearray(path.read_bytes())
    data[offset + _RECORD.size + key_len + 1] ^= 0xFF
    path.write_bytes(bytes(data))


class TestScrub:
    """The background integrity pass: find rot, repair from the LRU."""

    def test_clean_warehouse_scrubs_clean(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(5):
            warehouse.put(("k", i), list(range(50)))
        warehouse.flush()
        report = warehouse.scrub()
        assert report == {
            "scanned": 5, "corrupt": 0, "repaired": 0, "lost": 0,
        }

    def test_corrupt_record_repaired_from_the_repair_map(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(3):
            warehouse.put(("k", i), list(range(50)))
        warehouse.flush()
        corrupt_value_byte(warehouse, ("k", 1))

        report = warehouse.scrub(repair={("k", 1): list(range(50))})
        assert report["corrupt"] == 1
        assert report["repaired"] == 1
        assert report["lost"] == 0
        # The rewritten record is durable and byte-verified: a fresh
        # instance (fresh index, re-read from disk) serves it.
        # The old corrupt bytes are still on disk until a
        # compaction; the open-time scan skips them loudly.
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            fresh = SegmentWarehouse(tmp_path)
        assert fresh.get(("k", 1)) == list(range(50))
        assert fresh.scrub()["corrupt"] == 0

    def test_corrupt_record_without_repair_source_is_lost(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(3):
            warehouse.put(("k", i), list(range(50)))
        warehouse.flush()
        corrupt_value_byte(warehouse, ("k", 2))

        report = warehouse.scrub(repair={})  # LRU already evicted it
        assert report["corrupt"] == 1
        assert report["repaired"] == 0
        assert report["lost"] == 1
        # Lost means "recompute on demand", never "serve bad bytes".
        assert ("k", 2) not in warehouse
        assert warehouse.get(("k", 0)) == list(range(50))

    def test_scrub_counts_surface_in_stats(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k", 0), list(range(50)))
        warehouse.flush()
        corrupt_value_byte(warehouse, ("k", 0))
        warehouse.scrub(repair={("k", 0): list(range(50))})
        stats = warehouse.stats()
        assert stats.scrub_repairs == 1
        assert stats.corrupt_records == 1


class TestCompaction:
    def test_compact_reclaims_dead_bytes(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path, segment_max_bytes=2048)
        for i in range(20):
            warehouse.put(("k", i), list(range(100)))
        warehouse.flush()
        corrupt_value_byte(warehouse, ("k", 3))
        warehouse.scrub(repair={})  # drop it: now dead bytes on disk

        before = warehouse.stats().segment_bytes
        report = warehouse.compact()
        assert report["records"] == 19
        assert report["reclaimed"] > 0
        assert warehouse.stats().segment_bytes < before
        # Every survivor still serves, from this and a fresh instance.
        fresh = SegmentWarehouse(tmp_path)
        for i in range(20):
            expected = None if i == 3 else list(range(100))
            assert fresh.get(("k", i)) == expected

    def test_compact_renumbers_past_every_old_segment(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path, segment_max_bytes=1024)
        for i in range(10):
            warehouse.put(("k", i), list(range(100)))
        warehouse.flush()
        old_names = {p.name for p in tmp_path.glob("segment-*.seg")}
        warehouse.compact()
        new_names = {p.name for p in tmp_path.glob("segment-*.seg")}
        # A whole new generation: no name reuse, old files retired.
        assert not (old_names & new_names)
        assert new_names

    def test_compact_leaves_no_tmp_files(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        for i in range(5):
            warehouse.put(("k", i), i)
        warehouse.flush()
        warehouse.compact()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_leftover_tmp_from_a_crashed_compaction_is_invisible(
        self, tmp_path
    ):
        """A compaction killed between write and rename leaves a .tmp;
        the open-time glob must not index it."""
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("k",), 42)
        warehouse.flush()
        (tmp_path / "segment-000099.seg.tmp").write_bytes(b"half-written")

        fresh = SegmentWarehouse(tmp_path)  # no warning, no quarantine
        assert fresh.get(("k",)) == 42
        # And the next compaction numbers past the leftover, so the
        # rename can never collide with it.
        fresh.compact()
        assert fresh.get(("k",)) == 42

    def test_empty_warehouse_compacts_to_one_empty_segment(self, tmp_path):
        warehouse = SegmentWarehouse(tmp_path)
        warehouse.flush()
        report = warehouse.compact()
        assert report["records"] == 0
        assert len(list(tmp_path.glob("segment-*.seg"))) == 1


class TestFlushCrashSafety:
    """Satellite guarantee: a process killed mid-flush can cost at most
    the unflushed buffer — every previously flushed record survives
    (flush fsyncs the segment *and* the directory)."""

    import textwrap as _textwrap

    KILLER = _textwrap.dedent(
        """
        import os, signal, sys
        from repro.sim.warehouse import SegmentWarehouse

        class Bomb:
            '''Pickles partway through the flush, then SIGKILLs: a
            crash in the middle of the segment append.'''
            def __reduce__(self):
                os.kill(os.getpid(), signal.SIGKILL)
                return (int, (0,))  # unreachable

        warehouse = SegmentWarehouse(sys.argv[1])
        warehouse.put(("padding",), list(range(5000)))
        warehouse.put(("bomb",), Bomb())
        warehouse.flush()
        """
    )

    def test_kill_mid_flush_keeps_previously_flushed_records(
        self, tmp_path
    ):
        import os as os_mod
        import subprocess
        import sys as sys_mod

        warehouse = SegmentWarehouse(tmp_path)
        warehouse.put(("survivor",), list(range(1000)))
        warehouse.flush()

        src = os_mod.path.join(
            os_mod.path.dirname(
                os_mod.path.dirname(os_mod.path.dirname(__file__))
            ),
            "src",
        )
        env = dict(os_mod.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys_mod.executable, "-c", self.KILLER, str(tmp_path)],
            env=env, capture_output=True,
        )
        assert proc.returncode == -9  # SIGKILL landed mid-flush

        # Recovery may find a torn tail (the half-appended batch) but
        # the record flushed before the crash must load intact.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fresh = SegmentWarehouse(tmp_path)
        assert fresh.get(("survivor",)) == list(range(1000))
        assert ("bomb",) not in fresh
