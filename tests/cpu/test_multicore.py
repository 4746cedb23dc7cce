"""Tests for the event-driven multicore substrate."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator
from repro.workloads.generator import MemoryTrace, memory_trace
from repro.workloads.profiles import profile


@pytest.fixture(scope="module")
def trace():
    return memory_trace(profile("Ocean"), 15000, seed=4)


class TestSimulation:
    def test_runs_to_completion(self, trace):
        stats = MulticoreSimulator().run(trace)
        assert stats.cycles > 0
        assert stats.references == len(trace)

    def test_counters_consistent(self, trace):
        stats = MulticoreSimulator().run(trace)
        assert stats.l1_hits + stats.l1_misses == stats.references
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses

    def test_mesi_invariants_hold_after_run(self, trace):
        sim = MulticoreSimulator()
        sim.run(trace)
        sim.directory.check_invariants()

    def test_empty_trace(self):
        trace = MemoryTrace(
            addresses=np.zeros(0, dtype=np.int64),
            is_write=np.zeros(0, dtype=bool),
            thread=np.zeros(0, dtype=np.int64),
            instructions_between=np.zeros(0, dtype=np.int64),
        )
        sim = MulticoreSimulator()
        for _ in range(2):
            sim.run(trace)
        assert asdict(sim.stats) == asdict(MulticoreSimulator().stats)

    def test_rejects_engine_argument(self):
        # One event loop: there is no engine to choose.
        with pytest.raises(TypeError):
            MulticoreSimulator(engine="native")

    def test_sharing_produces_coherence_traffic(self, trace):
        stats = MulticoreSimulator().run(trace)
        assert stats.invalidations > 0
        assert stats.coherence_writebacks > 0

    def test_deterministic(self, trace):
        a = MulticoreSimulator().run(trace).cycles
        b = MulticoreSimulator().run(trace).cycles
        assert a == b


class TestArchitecturalTrends:
    def test_more_banks_faster(self, trace):
        one = MulticoreSimulator(MulticoreConfig(l2_banks=1)).run(trace)
        eight = MulticoreSimulator(MulticoreConfig(l2_banks=8)).run(trace)
        assert eight.cycles < one.cycles
        assert eight.bank_conflicts < one.bank_conflicts

    def test_one_to_two_banks_is_the_big_step(self, trace):
        """Figure 25: the 1→2 bank step removes most conflicts."""
        one = MulticoreSimulator(MulticoreConfig(l2_banks=1)).run(trace).cycles
        two = MulticoreSimulator(MulticoreConfig(l2_banks=2)).run(trace).cycles
        eight = MulticoreSimulator(MulticoreConfig(l2_banks=8)).run(trace).cycles
        assert (one - two) > (two - eight)

    def test_longer_transfer_window_slower(self, trace):
        """A DESC-like longer occupancy slows execution mildly."""
        binary = MulticoreSimulator(
            MulticoreConfig(l2_transfer_cycles=8)
        ).run(trace)
        desc = MulticoreSimulator(
            MulticoreConfig(l2_transfer_cycles=17)
        ).run(trace)
        assert desc.cycles > binary.cycles
        assert desc.cycles / binary.cycles < 1.4

    def test_larger_l1_fewer_misses(self, trace):
        small = MulticoreSimulator(MulticoreConfig(l1_size_bytes=4 * 1024)).run(trace)
        large = MulticoreSimulator(MulticoreConfig(l1_size_bytes=64 * 1024)).run(trace)
        assert large.l1_misses < small.l1_misses

    def test_slower_dram_slower_overall(self, trace):
        fast = MulticoreSimulator(MulticoreConfig(dram_latency=80)).run(trace)
        slow = MulticoreSimulator(MulticoreConfig(dram_latency=300)).run(trace)
        assert slow.cycles > fast.cycles


class TestNucaMode:
    def test_nuca_uses_128_banks(self, trace):
        from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator

        sim = MulticoreSimulator(MulticoreConfig(nuca=True))
        assert sim.l2.num_banks == 128
        stats = sim.run(trace)
        assert stats.cycles > 0

    def test_nuca_reduces_bank_conflicts(self, trace):
        from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator
        from repro.workloads.generator import memory_trace
        from repro.workloads.profiles import profile

        uca = MulticoreSimulator(MulticoreConfig()).run(trace)
        nuca = MulticoreSimulator(MulticoreConfig(nuca=True)).run(
            memory_trace(profile("Ocean"), 15000, seed=4)
        )
        assert nuca.bank_conflicts < uca.bank_conflicts

    def test_nuca_latency_depends_on_bank(self):
        from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator

        sim = MulticoreSimulator(MulticoreConfig(nuca=True))
        assert sim.nuca is not None
        assert sim.nuca.latency(0) < sim.nuca.latency(127)


class TestDramRowBuffer:
    def test_row_hits_counted(self, trace):
        from repro.cpu.multicore import MulticoreSimulator

        stats = MulticoreSimulator().run(trace)
        assert stats.dram_row_hits + stats.dram_row_misses == stats.l2_misses

    def test_reorder_window_improves_row_hits(self):
        """The FR-FCFS approximation: a deeper reorder window batches
        more same-row requests than strict FCFS (window = 1)."""
        from repro.cpu.multicore import MulticoreConfig, MulticoreSimulator
        from repro.workloads.generator import memory_trace
        from repro.workloads.profiles import profile

        app = profile("Ocean")
        fcfs = MulticoreSimulator(
            MulticoreConfig(dram_reorder_window=1)
        ).run(memory_trace(app, 12000, seed=3))
        frfcfs = MulticoreSimulator(
            MulticoreConfig(dram_reorder_window=32)
        ).run(memory_trace(app, 12000, seed=3))
        assert frfcfs.dram_row_hit_rate > 5 * max(fcfs.dram_row_hit_rate, 1e-6)
        assert frfcfs.cycles < fcfs.cycles

    def test_row_locality_is_substantial(self):
        """Both streams and hot-block reuse feed the reorder window:
        realistic traces land in the tens of percent of row hits, far
        from the FCFS floor."""
        from repro.cpu.multicore import MulticoreSimulator
        from repro.workloads.generator import memory_trace
        from repro.workloads.profiles import profile

        app = profile("Ocean")
        stats = MulticoreSimulator().run(memory_trace(app, 12000, seed=3))
        assert 0.2 < stats.dram_row_hit_rate < 0.9
