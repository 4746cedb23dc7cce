"""Event-driven multicore substrate: cores + L1s + MESI + banked L2 + DRAM.

This is the detailed counterpart of the analytic path (DESIGN.md §4):
a trace-driven simulation with per-thread clocks, private MESI-coherent
L1 data caches, the shared banked L2 with bank-occupancy conflicts, and
queued DRAM channels.  It is used to validate the analytic timing model
(integration tests compare trends — bank sweeps, latency sensitivity)
and by the examples; the figure harnesses use the fast analytic path.

Timing scheme: event-driven — the thread with the earliest clock always
advances next (references stay in program order per thread), so the
shared-resource timestamps (bank and DRAM next-free times) remain
causally consistent.  Banks and channels carry next-free times, DRAM
channels model open-row hits with an FR-FCFS reorder-window
approximation, and total execution time is the maximum thread clock.
This captures the first-order contention effects (bank conflicts,
channel queueing, row-buffer locality, coherence writebacks) without a
full out-of-order pipeline model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.l2 import BankedL2Cache
from repro.cache.mesi import MesiDirectory
from repro.cache.nuca import SNuca1Mapping
from repro.cache.sets import SetAssociativeCache
from repro.util.validation import require_positive
from repro.workloads.generator import MemoryTrace

__all__ = [
    "MulticoreConfig",
    "MulticoreStats",
    "MulticoreSimulator",
    "desc_transfer_windows",
]


def desc_transfer_windows(
    app_name: str,
    num_transfers: int,
    skip_policy: str = "zero",
    seed: int = 0,
) -> np.ndarray:
    """Per-transfer DESC window lengths from real block values.

    Generates the application's block stream and runs the closed-form
    DESC model over it, yielding the value-dependent transfer window of
    every block — the sequence the value-aware multicore mode consumes
    (one entry per L2 transfer, cycled if the trace is longer).
    """
    from repro.core.analysis import DescCostModel
    from repro.core.chunking import ChunkLayout
    from repro.workloads.generator import block_stream
    from repro.workloads.profiles import profile

    blocks = block_stream(profile(app_name), num_transfers, seed)
    model = DescCostModel(ChunkLayout(), skip_policy=skip_policy)
    return model.stream_cost(blocks).cycles


@dataclass(frozen=True)
class MulticoreConfig:
    """Parameters of the event-driven system (Table 1 defaults).

    Attributes:
        num_cores: Cores (8), each with private L1s.
        l1_size_bytes / l1_associativity: 16 KB, 4-way data L1.
        l1_hit_latency: 2 cycles (Table 1).
        block_bytes: 64 B blocks everywhere.
        l2_size_bytes / l2_associativity / l2_banks: the shared L2.
        l2_array_latency: Bank-internal access cycles.
        l2_transfer_cycles: Block-transfer window of the configured
            scheme (8 for the 64-bit binary bus; DESC's mean window for
            DESC runs).
        transfer_windows: Optional per-transfer window sequence (from
            :func:`desc_transfer_windows`): the value-aware mode, where
            each L2 transfer occupies its bank for the actual
            value-dependent DESC window.  Cycled if shorter than the
            trace.
        nuca: Model the Section 5.5 S-NUCA-1 organisation: 128
            statically routed banks whose access latency (3-13 cycles)
            depends on the bank's distance from the controller.
        dram_latency: Base DRAM access latency (controller + command +
            data return), on top of the bank service.
        dram_channels / dram_service: Channel count and occupancy.
        dram_banks_per_channel / dram_row_bytes: Row-buffer geometry of
            the DDR3-1066 channels (Table 1).  An access hitting the
            open row of its DRAM bank is served in ``dram_row_hit``
            cycles; a row conflict pays ``dram_row_miss``
            (precharge + activate + CAS) — the open-row policy half of
            FR-FCFS (requests are processed in trace order, so the
            first-ready reordering itself is approximated).
    """

    num_cores: int = 8
    l1_size_bytes: int = 16 * 1024
    l1_associativity: int = 4
    l1_hit_latency: int = 2
    block_bytes: int = 64
    l2_size_bytes: int = 8 * 1024 * 1024
    l2_associativity: int = 16
    l2_banks: int = 8
    l2_array_latency: int = 3
    l2_transfer_cycles: int = 8
    transfer_windows: tuple[int, ...] | None = None
    nuca: bool = False
    dram_latency: int = 154
    dram_channels: int = 2
    dram_service: int = 24
    dram_banks_per_channel: int = 8
    dram_row_bytes: int = 8192
    dram_row_hit: int = 12
    dram_row_miss: int = 38
    dram_reorder_window: int = 32

    def __post_init__(self) -> None:
        require_positive("num_cores", self.num_cores)
        require_positive("l2_transfer_cycles", self.l2_transfer_cycles)


@dataclass
class MulticoreStats:
    """Counters accumulated over a simulation."""

    cycles: int = 0
    references: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    invalidations: int = 0
    coherence_writebacks: int = 0
    bank_conflicts: int = 0
    l2_transfers: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses over all references."""
        return self.l1_misses / self.references if self.references else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses over L2 accesses."""
        total = self.l2_hits + self.l2_misses
        return self.l2_misses / total if total else 0.0

    @property
    def dram_row_hit_rate(self) -> float:
        """Open-row hits over all DRAM accesses."""
        total = self.dram_row_hits + self.dram_row_misses
        return self.dram_row_hits / total if total else 0.0


class MulticoreSimulator:
    """Runs a :class:`~repro.workloads.generator.MemoryTrace` to completion.

    A per-access event loop over the object-model caches
    (``SetAssociativeCache``, ``MesiDirectory``, ``BankedL2Cache``).
    State persists across :meth:`run` calls: counters accumulate, and
    ``cycles`` and ``bank_conflicts`` describe the latest run.
    """

    def __init__(self, config: MulticoreConfig | None = None) -> None:
        self.config = config if config is not None else MulticoreConfig()
        cfg = self.config
        self.l1s = [
            SetAssociativeCache(cfg.l1_size_bytes, cfg.block_bytes, cfg.l1_associativity)
            for _ in range(cfg.num_cores)
        ]
        self.directory = MesiDirectory(cfg.num_cores)
        num_banks = 128 if cfg.nuca else cfg.l2_banks
        self.l2 = BankedL2Cache(
            size_bytes=cfg.l2_size_bytes,
            block_bytes=cfg.block_bytes,
            associativity=cfg.l2_associativity,
            num_banks=num_banks,
            array_latency=cfg.l2_array_latency,
            service_cycles=cfg.l2_array_latency + cfg.l2_transfer_cycles,
        )
        self.nuca = (
            SNuca1Mapping(num_banks=128, block_bytes=cfg.block_bytes)
            if cfg.nuca
            else None
        )
        self._channel_free = [0] * cfg.dram_channels
        # FR-FCFS approximation: per channel, the (bank, row) pairs of
        # the most recent requests — anything matching would have been
        # batched onto the open row by a first-ready scheduler.
        from collections import deque

        self._recent_rows = [
            deque(maxlen=cfg.dram_reorder_window)
            for _ in range(cfg.dram_channels)
        ]
        self._window_index = 0
        self.stats = MulticoreStats()

    def _next_window(self) -> int:
        """Transfer window of the next L2 block move."""
        cfg = self.config
        if cfg.transfer_windows is None:
            return cfg.l2_transfer_cycles
        window = cfg.transfer_windows[
            self._window_index % len(cfg.transfer_windows)
        ]
        self._window_index += 1
        return int(window)

    def _dram_access(self, addr: int, now: int) -> int:
        """Queue a DRAM access; returns its completion time.

        Models the open-row policy: the access's (channel, bank, row)
        is checked against the bank's open row — a hit is served in
        ``dram_row_hit`` cycles, a conflict pays ``dram_row_miss`` and
        leaves its own row open.
        """
        cfg = self.config
        # Row-interleaved mapping: a whole row lives in one bank of one
        # channel, so sequential scans enjoy open-row hits while rows
        # still spread across banks/channels.
        row = addr // cfg.dram_row_bytes
        channel = row % cfg.dram_channels
        bank = (row // cfg.dram_channels) % cfg.dram_banks_per_channel
        key = (bank, row)
        recent = self._recent_rows[channel]
        if key in recent:
            self.stats.dram_row_hits += 1
            service = cfg.dram_row_hit
        else:
            self.stats.dram_row_misses += 1
            service = cfg.dram_row_miss
        recent.append(key)
        start = max(now, self._channel_free[channel])
        self._channel_free[channel] = start + service
        return start + cfg.dram_latency - cfg.dram_service + service

    def run(self, trace: MemoryTrace) -> MulticoreStats:
        """Process the whole trace; returns the accumulated statistics.

        Event-driven scheduling: references stay in program order within
        each thread, but across threads the simulator always advances
        the thread whose clock is earliest (a heap of thread clocks).
        This keeps the shared-resource timestamps (bank and channel
        next-free times) causally consistent even when some threads
        race far ahead — processing in raw trace order instead would
        let a leading thread inflate the absolute resource times that a
        lagging thread then spuriously waits on.
        """
        import heapq

        if len(trace) == 0:
            return self.stats
        cfg = self.config
        num_threads = int(trace.thread.max()) + 1
        clocks = [0] * num_threads
        conflicts_before = self.l2.bank_conflicts

        # Per-thread reference queues, preserving program order.
        per_thread: list[list[int]] = [[] for _ in range(num_threads)]
        for i in range(len(trace)):
            per_thread[int(trace.thread[i])].append(i)
        positions = [0] * num_threads
        ready = [
            (clocks[t], t) for t in range(num_threads) if per_thread[t]
        ]
        heapq.heapify(ready)

        while ready:
            _, thread = heapq.heappop(ready)
            i = per_thread[thread][positions[thread]]
            positions[thread] += 1

            core = thread % cfg.num_cores
            addr = int(trace.addresses[i])
            is_write = bool(trace.is_write[i])
            now = clocks[thread] + int(trace.instructions_between[i])
            self.stats.references += 1

            l1 = self.l1s[core]
            state = self.directory.state(core, addr)
            if is_write:
                # A write hits locally only with write permission
                # (M outright, or E upgraded to M silently).
                l1_hit = l1.contains(addr) and state.value in ("M", "E")
                if l1_hit and state.value == "E":
                    self.directory.write(core, addr)
            else:
                l1_hit = l1.contains(addr) and state.value != "I"
            if l1_hit:
                l1.access(addr, is_write)
                self.stats.l1_hits += 1
                clocks[thread] = now + cfg.l1_hit_latency
                if positions[thread] < len(per_thread[thread]):
                    heapq.heappush(ready, (clocks[thread], thread))
                continue

            # L1 miss (or write upgrade): coherence first, then the L2.
            self.stats.l1_misses += 1
            action = (
                self.directory.write(core, addr)
                if is_write
                else self.directory.read(core, addr)
            )
            self.stats.invalidations += action.invalidations
            if action.writeback:
                self.stats.coherence_writebacks += 1
                for other in range(cfg.num_cores):
                    if other != core:
                        self.l1s[other].mark_clean(addr)
            if action.invalidations:
                for other in range(cfg.num_cores):
                    if other != core:
                        self.l1s[other].invalidate(addr)

            window = self._next_window()
            # S-NUCA-1: the statically routed bank's distance-dependent
            # latency replaces part of the uniform access path.
            nuca_extra = self.nuca.access_latency(addr) if self.nuca else 0
            result = self.l2.access(
                addr, is_write, now,
                service_cycles=cfg.l2_array_latency + window,
            )
            self.stats.l2_transfers += 1
            if result.hit:
                self.stats.l2_hits += 1
                done = result.ready_time + nuca_extra + window
            else:
                self.stats.l2_misses += 1
                done = self._dram_access(addr, result.ready_time)
                if result.victim_dirty and result.victim_addr is not None:
                    self.stats.l2_transfers += 1  # victim writeback

            outcome = l1.access(addr, is_write)
            if outcome.victim_addr is not None:
                if self.directory.evict(core, outcome.victim_addr):
                    self.stats.coherence_writebacks += 1
                    self.stats.l2_transfers += 1
            clocks[thread] = done
            if positions[thread] < len(per_thread[thread]):
                heapq.heappush(ready, (clocks[thread], thread))

        self.stats.cycles = max(clocks)
        self.stats.bank_conflicts = self.l2.bank_conflicts - conflicts_before
        return self.stats
