"""Golden fault campaigns: whole ``FaultStats`` pinned across a grid.

``campaign_golden.json`` holds the full statistics of 74 campaigns
that cover every fault class, all three skip policies, two wire delays,
ECC on and off, and both resync modes.  Every fault event is a pure
function of the campaign seeds, so any change to the link, the
receiver's fault handling, the injector's draw order or the campaign
accounting shows up here as a mismatch.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/faults/test_campaign_golden.py
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.chunking import ChunkLayout
from repro.core.link import DescLink
from repro.ecc.layout import DescEccLayout
from repro.faults.campaign import FaultCampaignConfig, run_campaign
from repro.faults.processes import FaultConfig

GOLDEN_PATH = Path(__file__).parent / "campaign_golden.json"

POLICIES = ("none", "zero", "last-value")
WIRE_DELAYS = (0, 2)

#: One entry per fault class, plus everything at once on bursty chains.
FAULT_MIXES: tuple[FaultConfig, ...] = (
    FaultConfig(drop_rate=4e-3),
    FaultConfig(glitch_rate=2e-3),
    FaultConfig(strobe_glitch_rate=2e-2),
    FaultConfig(desync_rate=2e-2),
    FaultConfig(stuck_wires=(1, 5), stuck_level=1, glitch_rate=1e-3),
    FaultConfig(
        drop_rate=4e-3, glitch_rate=2e-3, strobe_glitch_rate=2e-2,
        desync_rate=2e-2, burst=True,
    ),
)


def golden_grid() -> list[FaultCampaignConfig]:
    """The 74 pinned campaigns.

    First a small full-factorial grid (12 x 64-bit blocks, 16-bit
    segments) whose resync interval alternates between ``None`` and 4.
    The policy loop is innermost: three policies is odd, so both resync
    modes meet both ECC settings.  Then two full-size (512-bit block)
    campaigns under heavy drops.  Campaign ``i`` uses fault seed ``i``
    and data seed ``i + 1``.
    """
    small = FaultCampaignConfig(num_blocks=12, block_bits=64, segment_bits=16)
    points = [
        replace(
            small, skip_policy=policy, wire_delay=delay, fault=mix,
            use_ecc=use_ecc, resync_interval=None if i % 2 == 0 else 4,
        )
        for i, (delay, mix, use_ecc, policy) in enumerate(itertools.product(
            WIRE_DELAYS, FAULT_MIXES, (True, False), POLICIES
        ))
    ]
    points += [
        FaultCampaignConfig(fault=FaultConfig(drop_rate=8e-3), use_ecc=use_ecc)
        for use_ecc in (True, False)
    ]
    return [
        replace(p, fault=replace(p.fault, seed=i), data_seed=i + 1)
        for i, p in enumerate(points)
    ]


def measure(config: FaultCampaignConfig) -> dict:
    """One campaign's golden record."""
    return {"key": config.key(), "stats": asdict(run_campaign(config).stats)}


def _load() -> list[dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GRID = golden_grid()


class TestGoldenCampaigns:
    @pytest.fixture(scope="class")
    def measured(self) -> list[dict]:
        return [measure(config) for config in GRID]

    def test_grid_matches_the_recorded_configs(self):
        assert [entry["key"] for entry in _load()] == [c.key() for c in GRID]

    def test_every_campaign_matches(self, measured):
        golden = _load()
        mismatched = [
            entry["key"] for entry, got in zip(golden, measured, strict=True)
            if got != entry
        ]
        assert mismatched == []

    def test_grid_exercises_every_recovery_path(self, measured):
        """Coverage guard: the pinned grid must keep reaching every
        fault class and both failure modes of the link."""
        totals = {
            name: sum(entry["stats"][name] for entry in measured)
            for name in (
                "dropped_toggles", "spurious_toggles", "strobe_glitches",
                "desync_events", "watchdog_aborts", "blocks_lost",
                "corrected_blocks", "detected_blocks", "silent_blocks",
            )
        }
        assert all(total > 0 for total in totals.values()), totals


def _campaign_stream(config: FaultCampaignConfig) -> np.ndarray:
    """The chunk stream a campaign drives, built from its data seed."""
    rng = np.random.default_rng(config.data_seed)
    bits = rng.integers(
        0, 2, size=(config.num_blocks, config.block_bits), dtype=np.uint8
    )
    ecc = DescEccLayout(
        block_bits=config.block_bits,
        segment_bits=config.segment_bits,
        chunk_bits=config.chunk_bits,
    )
    return ecc.encode_stream(bits)


class TestFaultFreeReference:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("wire_delay", WIRE_DELAYS)
    def test_baseline_equals_a_fault_free_link(self, policy, wire_delay):
        """The campaign's reference leg prices the same stream as a
        fault-free cycle-accurate link would."""
        config = FaultCampaignConfig(
            fault=FaultConfig(drop_rate=4e-3, glitch_rate=2e-3, seed=7),
            num_blocks=12, block_bits=64, segment_bits=16,
            skip_policy=policy, wire_delay=wire_delay, resync_interval=4,
            data_seed=11,
        )
        stats = run_campaign(config).stats
        stream = _campaign_stream(config)
        layout = ChunkLayout(
            block_bits=stream.shape[1] * config.chunk_bits,
            chunk_bits=config.chunk_bits,
            num_wires=stream.shape[1],
        )
        link = DescLink(layout, skip_policy=policy, wire_delay=wire_delay)
        for block in stream:
            link.send_block(block)
        cost = link.cost_so_far()
        assert stats.baseline_flips == cost.total_flips
        assert stats.baseline_cycles == cost.cycles


if __name__ == "__main__":
    records = [measure(config) for config in GRID]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} campaigns to {GOLDEN_PATH}")
