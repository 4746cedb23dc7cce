"""Unit and property tests for the MESI directory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.mesi import MesiDirectory, MesiState


class TestReadTransitions:
    def test_first_reader_gets_exclusive(self):
        directory = MesiDirectory(4)
        outcome = directory.read(0, 0x100)
        assert outcome.granted is MesiState.EXCLUSIVE
        assert not outcome.writeback

    def test_second_reader_shares(self):
        directory = MesiDirectory(4)
        directory.read(0, 0x100)
        outcome = directory.read(1, 0x100)
        assert outcome.granted is MesiState.SHARED
        assert directory.state(0, 0x100) is MesiState.SHARED

    def test_read_from_modified_forces_writeback(self):
        directory = MesiDirectory(4)
        directory.write(0, 0x100)
        outcome = directory.read(1, 0x100)
        assert outcome.writeback
        assert directory.state(0, 0x100) is MesiState.SHARED

    def test_re_read_is_silent(self):
        directory = MesiDirectory(4)
        directory.read(0, 0x100)
        outcome = directory.read(0, 0x100)
        assert outcome.granted is MesiState.EXCLUSIVE
        assert directory.writebacks == 0


class TestWriteTransitions:
    def test_writer_gets_modified(self):
        directory = MesiDirectory(4)
        assert directory.write(0, 0x40).granted is MesiState.MODIFIED

    def test_write_invalidates_sharers(self):
        directory = MesiDirectory(4)
        directory.read(0, 0x40)
        directory.read(1, 0x40)
        directory.read(2, 0x40)
        outcome = directory.write(3, 0x40)
        assert outcome.invalidations == 3
        for core in (0, 1, 2):
            assert directory.state(core, 0x40) is MesiState.INVALID

    def test_write_steals_modified_with_writeback(self):
        directory = MesiDirectory(2)
        directory.write(0, 0x40)
        outcome = directory.write(1, 0x40)
        assert outcome.writeback
        assert outcome.invalidations == 1
        assert directory.state(0, 0x40) is MesiState.INVALID

    def test_silent_e_to_m_upgrade(self):
        directory = MesiDirectory(2)
        directory.read(0, 0x40)  # E
        outcome = directory.write(0, 0x40)
        assert outcome.invalidations == 0
        assert not outcome.writeback
        assert directory.state(0, 0x40) is MesiState.MODIFIED


class TestEviction:
    def test_dirty_eviction_reports(self):
        directory = MesiDirectory(2)
        directory.write(0, 0x40)
        assert directory.evict(0, 0x40)

    def test_clean_eviction(self):
        directory = MesiDirectory(2)
        directory.read(0, 0x40)
        assert not directory.evict(0, 0x40)

    def test_evict_absent(self):
        assert not MesiDirectory(2).evict(0, 0x40)


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "evict"]),
            st.integers(0, 3),    # core
            st.integers(0, 5),    # block
        ),
        min_size=1, max_size=60,
    ))
    def test_random_operations_keep_invariants(self, ops):
        directory = MesiDirectory(4)
        for op, core, block in ops:
            addr = block * 64
            if op == "read":
                directory.read(core, addr)
            elif op == "write":
                directory.write(core, addr)
            else:
                directory.evict(core, addr)
            directory.check_invariants()

    def test_bad_core_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            MesiDirectory(2).read(5, 0)
