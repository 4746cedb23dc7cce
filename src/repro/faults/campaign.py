"""Fault-injection campaigns: a faulty link vs. a fault-free reference.

:func:`run_campaign` drives a seeded stream of random cache blocks
through a :class:`~repro.core.link.DescLink` carrying a
:class:`~repro.faults.injector.LinkFaultInjector`, optionally protecting
every block with the paper's chunk-interleaved SECDED layout (Figure 9),
and classifies each delivered block against the transmitted data:
clean, ECC-corrected, *detected* corrupt (sentinels or uncorrectable
syndrome — a retry candidate), or *silently* wrong (the failure mode
that actually matters).  The closed-form
:class:`~repro.core.analysis.DescCostModel` prices the same stream on a
fault-free link, so recovery costs can be expressed as overhead ratios;
``tests/core/test_agreement.py`` pins that model to the cycle-accurate
link for every skip policy.

The campaign is a pure function of its config: all randomness comes from
the config's seeds, so results are identical whether campaigns run
serially or across pool workers — which is what lets the staged engine
cache and parallelize them like any other batch job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.core.link import DescLink
from repro.core.receiver import CORRUPT_CHUNK
from repro.ecc.hamming import DecodeStatus
from repro.ecc.layout import DescEccLayout
from repro.faults.injector import LinkFaultInjector
from repro.faults.processes import FaultConfig
from repro.sim.metrics import FaultStats

__all__ = [
    "FaultCampaignConfig",
    "FaultCampaignResult",
    "run_campaign",
    "sweep_grid",
]


@dataclass(frozen=True)
class FaultCampaignConfig:
    """One point of a fault sweep: environment, protection, workload.

    Attributes:
        fault: The link's fault environment (rates + injector seed).
        num_blocks: Blocks to push through the link.
        block_bits: Data bits per block.
        chunk_bits: DESC chunk width.
        segment_bits: SECDED segment size (only with ``use_ecc``).
        skip_policy: Transfer-skipping policy name for both endpoints.
        wire_delay: Link propagation delay in cycles.
        resync_interval: Blocks between periodic resync strobes
            (``None`` disables periodic recovery; the block watchdog
            still forces a resync after a lost block).
        use_ecc: Protect blocks with the Figure 9 interleaved SECDED
            layout; off, corrupted chunks land in the data unchecked.
        data_seed: Seed of the random block stream (independent of the
            fault seed so the two can vary separately in sweeps).
    """

    fault: FaultConfig = FaultConfig()
    num_blocks: int = 64
    block_bits: int = 512
    chunk_bits: int = 4
    segment_bits: int = 128
    skip_policy: str = "none"
    wire_delay: int = 0
    resync_interval: int | None = 8
    use_ecc: bool = True
    data_seed: int = 1

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be >= 0, got {self.data_seed}")

    def key(self) -> str:
        """A stable identity string for result-store caching."""
        f = self.fault
        fault_part = (
            f"d{f.drop_rate}:g{f.glitch_rate}:s{f.strobe_glitch_rate}"
            f":c{f.desync_rate}:w{f.stuck_wires}:l{f.stuck_level}"
            f":b{int(f.burst)}:{f.burst_on_rate}:{f.burst_off_rate}"
            f":{f.burst_gain}:seed{f.seed}"
        )
        return (
            f"faults/{fault_part}/n{self.num_blocks}:bb{self.block_bits}"
            f":cb{self.chunk_bits}:sb{self.segment_bits}:{self.skip_policy}"
            f":wd{self.wire_delay}:ri{self.resync_interval}"
            f":ecc{int(self.use_ecc)}:ds{self.data_seed}"
        )


@dataclass(frozen=True)
class FaultCampaignResult:
    """A campaign's config echoed back with its measured statistics."""

    config: FaultCampaignConfig
    stats: FaultStats


def _link_layout(config: FaultCampaignConfig, num_chunks: int) -> ChunkLayout:
    """One wire per chunk: every block is a single round.

    The ECC chunk count (137 in the paper's default) is prime, so the
    protected stream cannot split into multiple equal rounds anyway;
    matching geometry on the unprotected path keeps the two comparable.
    """
    return ChunkLayout(
        block_bits=num_chunks * config.chunk_bits,
        chunk_bits=config.chunk_bits,
        num_wires=num_chunks,
    )


def _bit_weight(values: np.ndarray, chunk_bits: int) -> int:
    """Total set bits across ``values`` (each < 2**chunk_bits)."""
    shifts = np.arange(chunk_bits, dtype=np.int64)
    return int(((values[:, None] >> shifts) & 1).sum())


def run_campaign(config: FaultCampaignConfig) -> FaultCampaignResult:
    """Run one fault-injection campaign; pure in ``config``."""
    rng = np.random.default_rng(config.data_seed)
    bits = rng.integers(
        0, 2, size=(config.num_blocks, config.block_bits), dtype=np.uint8
    )

    ecc: DescEccLayout | None = None
    if config.use_ecc:
        ecc = DescEccLayout(
            block_bits=config.block_bits,
            segment_bits=config.segment_bits,
            chunk_bits=config.chunk_bits,
        )
        stream = ecc.encode_stream(bits)
    else:
        shifts = np.arange(config.chunk_bits, dtype=np.int64)
        lanes = bits.reshape(config.num_blocks, -1, config.chunk_bits)
        stream = (lanes.astype(np.int64) << shifts).sum(axis=2)
    layout = _link_layout(config, stream.shape[1])

    injector = (
        LinkFaultInjector(config.fault, layout.num_wires)
        if config.fault.any_faults
        else None
    )
    faulty = DescLink(
        layout,
        skip_policy=config.skip_policy,
        wire_delay=config.wire_delay,
        injector=injector,
        resync_interval=config.resync_interval,
    )

    clean = corrected = detected = silent = 0
    chunk_errors = chunks_total = 0
    bit_errors = bits_total = 0
    for i in range(config.num_blocks):
        delivered_before = len(faulty.receiver.received_blocks)
        faulty.send_block(stream[i])
        if len(faulty.receiver.received_blocks) == delivered_before:
            continue  # lost block, already counted by the link watchdog
        got = faulty.receiver.received_blocks[-1]
        chunk_errors += int((got != stream[i]).sum())
        chunks_total += layout.num_chunks
        if ecc is not None:
            result = ecc.decode_block(got)
            wrong = int((result.data_bits != bits[i]).sum())
            if not result.ok:
                detected += 1
            elif wrong:
                silent += 1
                bit_errors += wrong
                bits_total += config.block_bits
            else:
                bits_total += config.block_bits
                if any(s == DecodeStatus.CORRECTED for s in result.status):
                    corrected += 1
                else:
                    clean += 1
        else:
            if (got == CORRUPT_CHUNK).any():
                detected += 1
            else:
                wrong = _bit_weight(got ^ stream[i], config.chunk_bits)
                bits_total += config.block_bits
                if wrong:
                    silent += 1
                    bit_errors += wrong
                else:
                    clean += 1

    report = faulty.fault_report()
    inj = injector.stats() if injector is not None else None
    cost = faulty.cost_so_far()
    base = DescCostModel(layout, config.skip_policy).stream_cost(stream).total()
    stats = FaultStats(
        blocks_sent=report.blocks_sent,
        blocks_delivered=report.blocks_delivered,
        blocks_lost=report.blocks_lost,
        clean_blocks=clean,
        corrected_blocks=corrected,
        detected_blocks=detected,
        silent_blocks=silent,
        chunk_errors_pre_ecc=chunk_errors,
        chunks_total=chunks_total,
        bit_errors_post_ecc=bit_errors,
        bits_total=bits_total,
        resyncs=report.resyncs,
        mean_recovery_latency=report.mean_recovery_latency,
        resync_flips=report.resync_flips,
        resync_cycles=report.resync_cycles,
        total_flips=int(cost.total_flips),
        total_cycles=int(cost.cycles),
        baseline_flips=int(base.total_flips),
        baseline_cycles=int(base.cycles),
        dropped_toggles=inj.dropped_toggles if inj else 0,
        spurious_toggles=inj.spurious_toggles if inj else 0,
        strobe_glitches=inj.strobe_glitches if inj else 0,
        desync_events=inj.desync_events if inj else 0,
        watchdog_aborts=report.receiver_events.watchdog_aborts,
    )
    return FaultCampaignResult(config=config, stats=stats)


def sweep_grid(
    base: FaultCampaignConfig,
    drop_rates: tuple[float, ...],
    resync_intervals: tuple[int | None, ...],
    ecc_settings: tuple[bool, ...] = (True, False),
) -> list[FaultCampaignConfig]:
    """The cross-product grid of a fault sweep, as campaign configs."""
    grid: list[FaultCampaignConfig] = []
    for rate in drop_rates:
        for interval in resync_intervals:
            for use_ecc in ecc_settings:
                grid.append(
                    replace(
                        base,
                        fault=replace(base.fault, drop_rate=rate),
                        resync_interval=interval,
                        use_ecc=use_ecc,
                    )
                )
    return grid
