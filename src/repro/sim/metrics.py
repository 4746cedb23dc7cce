"""Result containers for system simulations.

:class:`RunResult` is what one (application, scheme, system) simulation
produces; every figure harness consumes these.  All energies are in
joules and all times in core clock cycles, but the figures only ever
report ratios, per the paper.

:class:`FaultStats` is the robustness counterpart: what one link-level
fault-injection campaign (:func:`repro.faults.run_campaign`) reports.
It lives here, beside the other result containers, so the staged engine
and the result store can treat fault campaigns like any other batch job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.mcpat import ProcessorEnergyBreakdown

__all__ = ["TransferStats", "L2Energy", "RunResult", "FaultStats"]


@dataclass(frozen=True)
class TransferStats:
    """Mean per-block wire activity of the configured scheme.

    Attributes:
        data_flips: Data-wire transitions per block transfer.
        overhead_flips: Overhead-wire transitions per block transfer.
        sync_flips: Synchronization-strobe transitions (DESC only).
        transfer_cycles: Bus occupancy per block transfer, cycles (for
            DESC, the full time window).
        latency_cycles: Critical-path delivery latency per block (for
            DESC, the paper's average-value latency; equals
            ``transfer_cycles`` for the fixed-beat schemes).
        data_wires / overhead_wires: Wire counts of the scheme.
    """

    data_flips: float
    overhead_flips: float
    sync_flips: float
    transfer_cycles: float
    latency_cycles: float
    data_wires: int
    overhead_wires: int

    @property
    def total_flips(self) -> float:
        """All wire transitions per block transfer."""
        return self.data_flips + self.overhead_flips + self.sync_flips


@dataclass(frozen=True)
class FaultStats:
    """Outcome of one link-level fault-injection campaign.

    Block outcomes partition ``blocks_sent``:

    * **clean** — delivered and bit-exact;
    * **corrected** — delivered with errors the ECC repaired;
    * **detected** — the receiver or the ECC *knows* the block is bad
      (watchdog sentinels, uncorrectable syndrome) — a retry candidate;
    * **silent** — accepted as good but wrong: the failure mode that
      actually matters;
    * **lost** — the block watchdog abandoned the transfer and forced a
      resync.

    Attributes:
        blocks_sent: Blocks pushed into the faulty link.
        blocks_delivered: Blocks the receiver assembled (any quality).
        blocks_lost: Transfers abandoned by the block watchdog.
        clean_blocks: Delivered bit-exact with no correction needed.
        corrected_blocks: Delivered bit-exact after ECC correction.
        detected_blocks: Delivered but flagged bad (sentinel chunks or
            an uncorrectable ECC syndrome).
        silent_blocks: Delivered, accepted, and wrong.
        chunk_errors_pre_ecc: Delivered chunk values differing from the
            transmitted ones, before any correction.
        chunks_total: Chunk count over all delivered blocks.
        bit_errors_post_ecc: Residual wrong data bits in *accepted*
            blocks (after ECC correction when enabled).
        bits_total: Data bits over all accepted blocks.
        resyncs: Resync strobes driven (periodic + forced).
        mean_recovery_latency: Mean cycles from a detected
            desynchronization to the resync that cleared it.
        resync_flips: Wire transitions spent on resync strobes.
        resync_cycles: Stall cycles spent on resync strobes.
        total_flips: All wire transitions on the faulty link.
        total_cycles: Busy + resync cycles on the faulty link.
        baseline_flips: Wire transitions of a fault-free link carrying
            the same data, priced by the closed-form ``DescCostModel``
            (pinned to the cycle-accurate link by the agreement tests).
        baseline_cycles: Busy cycles of that fault-free transfer, from
            the same model.
        dropped_toggles / spurious_toggles / strobe_glitches /
            desync_events: Fault events the injector produced.
        watchdog_aborts: Rounds abandoned by the receiver's watchdog.
    """

    blocks_sent: int
    blocks_delivered: int
    blocks_lost: int
    clean_blocks: int
    corrected_blocks: int
    detected_blocks: int
    silent_blocks: int
    chunk_errors_pre_ecc: int
    chunks_total: int
    bit_errors_post_ecc: int
    bits_total: int
    resyncs: int
    mean_recovery_latency: float
    resync_flips: int
    resync_cycles: int
    total_flips: int
    total_cycles: int
    baseline_flips: int
    baseline_cycles: int
    dropped_toggles: int
    spurious_toggles: int
    strobe_glitches: int
    desync_events: int
    watchdog_aborts: int

    @property
    def chunk_error_rate(self) -> float:
        """Corrupted delivered chunks per chunk, before correction."""
        return self.chunk_errors_pre_ecc / self.chunks_total if self.chunks_total else 0.0

    @property
    def residual_bit_error_rate(self) -> float:
        """Silently wrong data bits per accepted bit, after correction."""
        return self.bit_errors_post_ecc / self.bits_total if self.bits_total else 0.0

    @property
    def silent_block_rate(self) -> float:
        """Fraction of sent blocks accepted as good but wrong."""
        return self.silent_blocks / self.blocks_sent if self.blocks_sent else 0.0

    @property
    def detected_block_rate(self) -> float:
        """Fraction of sent blocks known bad (detected or lost)."""
        if not self.blocks_sent:
            return 0.0
        return (self.detected_blocks + self.blocks_lost) / self.blocks_sent

    @property
    def resync_energy_overhead(self) -> float:
        """Resync wire activity relative to the fault-free transfer cost."""
        return self.resync_flips / self.baseline_flips if self.baseline_flips else 0.0

    @property
    def cycle_overhead(self) -> float:
        """Extra cycles (recovery stalls included) over the fault-free run."""
        if not self.baseline_cycles:
            return 0.0
        return (self.total_cycles - self.baseline_cycles) / self.baseline_cycles


@dataclass(frozen=True)
class L2Energy:
    """L2 energy split (Figures 2 and 18).

    Attributes:
        static_j: Leakage over the run.
        htree_dynamic_j: Data + overhead + address wire switching.
        array_dynamic_j: SRAM array and decoder switching.
    """

    static_j: float
    htree_dynamic_j: float
    array_dynamic_j: float

    @property
    def dynamic_j(self) -> float:
        """All dynamic L2 energy."""
        return self.htree_dynamic_j + self.array_dynamic_j

    @property
    def total_j(self) -> float:
        """Total L2 energy."""
        return self.static_j + self.dynamic_j


@dataclass(frozen=True)
class RunResult:
    """Everything one simulation reports.

    Attributes:
        app: Application name.
        scheme: Scheme label.
        cycles: Execution time in core cycles.
        hit_latency: Mean end-to-end L2 hit latency, cycles.
        miss_latency: Mean L2 miss latency, cycles.
        bank_wait: Mean bank queueing delay, cycles.
        transfers: Block transfers on the H-tree over the run.
        transfer_stats: Mean per-block wire activity.
        l2: L2 energy breakdown.
        processor: Whole-processor energy breakdown.
    """

    app: str
    scheme: str
    cycles: float
    hit_latency: float
    miss_latency: float
    bank_wait: float
    transfers: float
    transfer_stats: TransferStats
    l2: L2Energy
    processor: ProcessorEnergyBreakdown

    @property
    def l2_energy_j(self) -> float:
        """Total L2 energy of the run."""
        return self.l2.total_j

    @property
    def processor_energy_j(self) -> float:
        """Total processor energy of the run."""
        return self.processor.total_j
