"""The five pure stages of the simulation pipeline (DESIGN.md §4).

One (application, scheme, system) simulation is a straight-line graph:

    sample_workload ──► transfer model ──► design_cache ──►
        solve_timing ──► account_energy ──► RunResult

Each stage is a pure function from typed inputs to a typed, picklable
dataclass, and each declares its own result-store key (``*_key``), so
the engine (:mod:`repro.sim.engine`) can memoize any stage in the
unified :class:`~repro.sim.store.ResultStore` and recompute it
identically inside process-pool workers.  Stage 2 — the transfer-cost
model — is not a function here but a :class:`~repro.encoding.registry.
TransferModel` resolved through the encoding registry, which is how
DESC variants, the binary-style baselines, and ECC-wrapped schemes all
flow through the same engine without any scheme-kind branching.

Beside stage 1 sits ``chunk_stats_key``: a sample's chunk-value
statistics (Figs. 12/13), stored apart from the sample so that a
persisted store keeps them while the sample stays in memory
(:data:`repro.sim.store.MEMORY_ONLY_STAGE`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cpu.dram import DramModel
from repro.cpu.inorder import SmtCoreModel
from repro.cpu.ooo import OooCoreModel
from repro.cpu.queueing import _MAX_UTILIZATION
from repro.encoding.registry import resolve_segment_bits
from repro.energy.cacti import CacheEnergyModel, CacheGeometry
from repro.energy.mcpat import ProcessorEnergyBreakdown, ProcessorPowerModel
from repro.interconnect.wires import WireModel
from repro.kernels.pipeline import PackedBits
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.metrics import L2Energy, TransferStats
from repro.sim.store import StoreKey
from repro.workloads.generator import block_sample
from repro.workloads.profiles import AppProfile

__all__ = [
    "WorkloadSample",
    "CacheDesign",
    "TimingSolution",
    "sample_workload",
    "workload_key",
    "chunk_stats_key",
    "transfer_key",
    "design_cache",
    "cache_design_key",
    "solve_timing",
    "account_energy",
    "run_key",
]

# Mean extra L1 accesses per instruction (I-cache + D-cache), used for
# the McPAT L1 term.
_L1_ACCESSES_PER_INSTRUCTION = 1.3
# S-NUCA-1 bank access latencies range over 3..13 core cycles
# (Section 5.5); statically routed ports replace the shared H-tree.
_NUCA_MEAN_BANK_LATENCY = 8.0
_FIXED_POINT_ITERATIONS = 30
# S-NUCA-1 routes each bank's 128-bit port statically instead of over
# the recursive H-tree; the average electrical route is shorter.
_NUCA_ROUTE_SCALE = 0.40


# ----------------------------------------------------------------------
# Stage 1 — workload sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSample:
    """One application's cached block-value sample, as packed words.

    Attributes:
        app: The profile the sample was drawn from.
        num_blocks: Sample size (blocks).
        seed: Generator seed.
        null_fraction: Fraction of blocks that are entirely zero.
        packed: The sample's ``(num_blocks, 512)`` bits as little-endian
            packed uint64 words (``pipeline.PackedBits``), the only form
            a sample is held in.  The encoder kernels, the DESC cost
            model, the chunk-value statistics, the SECDED layouts and
            the null-block filter all read these words; a stage that
            needs chunk values cuts them from the words
            (``PackedBits.chunks``) and drops them when it is done.
    """

    app: AppProfile
    num_blocks: int
    seed: int
    null_fraction: float
    packed: PackedBits


def workload_key(app: AppProfile, num_blocks: int, seed: int) -> StoreKey:
    """Store key of a workload sample.

    Keyed by the (frozen, hashable) profile itself, so custom profiles
    — not just the registered Table 2 applications — get their own
    value streams.
    """
    return ("workload", app, num_blocks, seed)


def chunk_stats_key(app: AppProfile, num_blocks: int, seed: int) -> StoreKey:
    """Store key of a workload sample's chunk-value statistics
    (``workloads.generator.chunk_statistics``, Figs. 12/13)."""
    return ("chunk-stats", app, num_blocks, seed)


def sample_workload(app: AppProfile, num_blocks: int, seed: int) -> WorkloadSample:
    """Draw an application's block-value sample (pure in the seed).

    One ``pipeline.block_assemble`` call (mask compares + chunk fills +
    word packing) yields the packed words, so the workload stage crosses
    the Python↔C boundary once when the native library is loaded.  The
    assembly's chunk matrix lives only long enough to measure the null
    fraction; the sample keeps the words alone.
    """
    chunks, packed = block_sample(app, num_blocks, seed)
    null_fraction = float((chunks == 0).all(axis=1).mean())
    return WorkloadSample(
        app=app,
        num_blocks=num_blocks,
        seed=seed,
        null_fraction=null_fraction,
        packed=packed,
    )


# ----------------------------------------------------------------------
# Stage 2 — transfer-cost modeling (dispatched via the registry)
# ----------------------------------------------------------------------


def transfer_key(
    scheme: SchemeConfig,
    app: AppProfile,
    num_blocks: int,
    seed: int,
    exclude_null: bool,
) -> StoreKey:
    """Store key of a scheme's transfer statistics on a sample.

    A segmented baseline left at its default width
    (``segment_bits=None``) is keyed by the width the registry resolves
    it to, so it shares one entry with the same width spelled out.
    """
    bits = resolve_segment_bits(scheme.name, scheme.segment_bits)
    if bits != scheme.segment_bits:
        scheme = replace(scheme, segment_bits=bits)
    return ("transfer", scheme, app, num_blocks, seed, exclude_null)


# ----------------------------------------------------------------------
# Stage 3 — cache geometry / energy construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheDesign:
    """The scalar outputs of the CACTI-class model that timing and
    energy accounting consume.

    Extracting scalars (instead of passing the model object along)
    keeps the stage output a small, picklable value — cheap to store
    and to ship between pool workers.
    """

    array_delay_cycles: int
    base_hit_cycles: int
    htree_delay_cycles: int
    energy_per_flip_j: float
    address_energy_j: float
    array_access_energy_j: float
    leakage_w: float


def cache_design_key(
    system: SystemConfig, data_wires: int, overhead_wires: int
) -> StoreKey:
    """Store key of a cache design.

    Only the fields the construction actually reads participate, so
    e.g. a sweep over ``sample_blocks`` or ``core`` reuses the design.
    """
    return (
        "cache-design",
        system.l2_size_bytes,
        system.block_bytes,
        system.l2_associativity,
        system.num_banks,
        system.subbanks_per_bank,
        system.mats_per_subbank,
        system.cell_device,
        system.periph_device,
        system.clock_hz,
        system.nuca,
        system.low_swing,
        data_wires,
        overhead_wires,
    )


def cache_energy_model(
    system: SystemConfig, data_wires: int, overhead_wires: int
) -> CacheEnergyModel:
    """The full CACTI-class model for a system/bus combination."""
    geometry = CacheGeometry(
        size_bytes=system.l2_size_bytes,
        block_bytes=system.block_bytes,
        associativity=system.l2_associativity,
        num_banks=128 if system.nuca else system.num_banks,
        subbanks_per_bank=system.subbanks_per_bank,
        mats_per_subbank=system.mats_per_subbank,
        data_wires=data_wires,
        overhead_wires=overhead_wires,
    )
    return CacheEnergyModel(
        geometry=geometry,
        cell_device=system.cell_device,
        periph_device=system.periph_device,
        clock_hz=system.clock_hz,
        wire_model=WireModel.low_swing() if system.low_swing else None,
        route_scale=_NUCA_ROUTE_SCALE if system.nuca else 1.0,
    )


def design_cache(
    system: SystemConfig, data_wires: int, overhead_wires: int
) -> CacheDesign:
    """Build the cache model and extract its downstream scalars."""
    cache = cache_energy_model(system, data_wires, overhead_wires)
    return CacheDesign(
        array_delay_cycles=cache.array_delay_cycles,
        base_hit_cycles=cache.base_hit_cycles,
        htree_delay_cycles=cache.htree_delay_cycles,
        energy_per_flip_j=cache.energy_per_flip_j,
        address_energy_j=cache.address_energy_j,
        array_access_energy_j=cache.array_access_energy_j,
        leakage_w=cache.leakage_w,
    )


# ----------------------------------------------------------------------
# Stage 4 — the execution-time fixed point
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimingSolution:
    """Converged system timing for one run.

    Attributes:
        cycles: Execution time in core cycles.
        hit_latency: Mean end-to-end L2 hit latency, cycles.
        miss_latency: Mean L2 miss latency, cycles.
        bank_wait: Mean bank queueing delay, cycles.
        transfers_per_access: H-tree block transfers per L2 access.
        seconds: Wall-clock execution time.
    """

    cycles: float
    hit_latency: float
    miss_latency: float
    bank_wait: float
    transfers_per_access: float
    seconds: float


def solve_timing(
    app: AppProfile,
    system: SystemConfig,
    stats: TransferStats,
    design: CacheDesign,
    scheme_delay: float,
    null_fraction: float,
) -> TimingSolution:
    """Solve the execution-time fixed point.

    Bank and DRAM queueing depend on the access rate, which depends on
    execution time; damped iteration converges in a few tens of steps.
    """
    if system.nuca:
        access_path = system.controller_overhead_cycles + _NUCA_MEAN_BANK_LATENCY
        access_path += design.array_delay_cycles
    else:
        access_path = system.controller_overhead_cycles + design.base_hit_cycles
    # Delivery latency: the SMT multicore sees the average-value
    # latency (critical chunks stream in; Section 5.3), while the
    # latency-sensitive OoO core waits for the full window — DESC
    # delivers chunks in value order, so there is no critical-word-first
    # forwarding for a blocked dependent load (Section 5.8).
    if system.core == "ooo":
        delivery = stats.transfer_cycles
    else:
        delivery = stats.latency_cycles
    hit_no_wait = access_path + scheme_delay + delivery
    if null_fraction:
        # Directory hits skip the array and the transfer entirely.
        null_hit_latency = system.controller_overhead_cycles + 1.0
        hit_no_wait = (
            (1.0 - null_fraction) * hit_no_wait
            + null_fraction * null_hit_latency
        )

    dram = DramModel()
    # The miss penalty is independent of the data scheme (Section 5.3):
    # the address travels in binary and the line returns from DRAM.
    miss_base = (
        system.controller_overhead_cycles + design.htree_delay_cycles
        + dram.base_latency_cycles + dram.service_cycles
    )

    core = SmtCoreModel() if system.core == "smt" else OooCoreModel()

    # Each L2 access occupies a bank for the array access plus the
    # transfer window; misses additionally move the fill (and dirty
    # victims) over the H-tree.
    bank_service = design.array_delay_cycles + stats.transfer_cycles
    transfers_per_access = (1.0 - null_fraction) * (
        1.0 + app.l2_miss_rate * (1.0 + app.write_fraction)
    )
    num_banks = 128 if system.nuca else system.num_banks

    cycles = core.execution_cycles(app, hit_no_wait, miss_base)
    bank_wait = 0.0
    miss_latency = miss_base
    # ``md1_wait`` inlined (same expressions, so the floats are
    # bit-identical): the two queueing terms run 2 * 30 iterations per
    # (scheme, app) job and the call/validation overhead is measurable
    # across a whole figure sweep.
    dram_service = dram.service_cycles
    dram_channels = dram.channels
    miss_transfers = app.l2_accesses * app.l2_miss_rate
    access_transfers = app.l2_accesses * transfers_per_access
    for _ in range(_FIXED_POINT_ITERATIONS):
        rho = min(
            access_transfers / cycles * bank_service / num_banks,
            _MAX_UTILIZATION,
        )
        bank_wait = (
            0.0
            if bank_service <= 0.0
            else rho * bank_service / (2.0 * (1.0 - rho))
        )
        rho = min(
            miss_transfers / cycles * dram_service / dram_channels,
            _MAX_UTILIZATION,
        )
        miss_latency = miss_base + rho * dram_service / (2.0 * (1.0 - rho))
        hit_latency = hit_no_wait + bank_wait
        new_cycles = core.execution_cycles(app, hit_latency, miss_latency + bank_wait)
        cycles = 0.5 * (cycles + new_cycles)

    return TimingSolution(
        cycles=cycles,
        hit_latency=hit_no_wait + bank_wait,
        miss_latency=miss_latency,
        bank_wait=bank_wait,
        transfers_per_access=transfers_per_access,
        seconds=cycles / system.clock_hz,
    )


# ----------------------------------------------------------------------
# Stage 5 — energy accounting
# ----------------------------------------------------------------------


def account_energy(
    app: AppProfile,
    system: SystemConfig,
    stats: TransferStats,
    design: CacheDesign,
    timing: TimingSolution,
    controller_write_flips: float,
    null_fraction: float,
) -> tuple[L2Energy, ProcessorEnergyBreakdown]:
    """Charge L2 energy and wrap it in the processor breakdown."""
    transfers = app.l2_accesses * timing.transfers_per_access
    htree_dynamic = (
        transfers * stats.total_flips * design.energy_per_flip_j
        + app.l2_accesses * design.address_energy_j
    )
    if null_fraction:
        # Null hits still flag the requester: one control-wire toggle.
        htree_dynamic += (
            app.l2_accesses * null_fraction * design.energy_per_flip_j
        )
    if controller_write_flips:
        # Controller-side switching the scheme charges per written
        # block (e.g. DESC last-value tracking's write-data broadcast,
        # Section 5.2), on top of the strobe traffic.
        htree_dynamic += (
            app.l2_accesses * app.write_fraction
            * controller_write_flips * design.energy_per_flip_j
        )
    array_dynamic = transfers * design.array_access_energy_j
    l2 = L2Energy(
        static_j=design.leakage_w * timing.seconds,
        htree_dynamic_j=htree_dynamic,
        array_dynamic_j=array_dynamic,
    )

    power_model = ProcessorPowerModel(
        num_cores=8 if system.core == "smt" else 1, clock_hz=system.clock_hz
    )
    processor = power_model.breakdown(
        instructions=app.instructions,
        cycles=timing.cycles,
        l1_accesses=app.instructions * _L1_ACCESSES_PER_INSTRUCTION,
        memory_accesses=app.l2_accesses * app.l2_miss_rate,
        l2_energy_j=l2.total_j,
    )
    return l2, processor


# ----------------------------------------------------------------------
# Whole-run key
# ----------------------------------------------------------------------


def run_key(
    app: AppProfile, scheme: SchemeConfig, system: SystemConfig
) -> StoreKey:
    """Store key of a complete (application, scheme, system) run."""
    return ("run", app, scheme, system)
