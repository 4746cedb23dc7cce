"""Golden multi-round faulty links: per-block costs and deliveries pinned.

A fault campaign puts one chunk on each wire, so every block it sends
is a single round.  ``link_golden.json`` pins links whose blocks span
several rounds, so that round framing across rounds — a dropped reset
toggle, a glitched strobe, a counter upset between rounds — is pinned
under random faults too.  Every entry of the campaign golden's
``FAULT_MIXES`` is crossed with the three skip policies and wire
delays 0 and 2, over 32-bit blocks of 4-bit chunks on 4 wires (two
rounds) and on 2 wires (four rounds).  Each link records every block's
:class:`~repro.core.protocol.TransferCost`, the delivered blocks, its
``fault_report()`` and the injector's ``stats()``.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/faults/test_link_golden.py
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
from repro.faults.injector import LinkFaultInjector
from repro.faults.processes import FaultConfig
from test_campaign_golden import FAULT_MIXES, POLICIES, WIRE_DELAYS

GOLDEN_PATH = Path(__file__).parent / "link_golden.json"

#: Two rounds per block, then four.
NUM_WIRES = (4, 2)
NUM_BLOCKS = 12


def golden_links() -> list[dict]:
    """The pinned links, as plain parameters.

    Link ``i`` uses fault seed ``i`` and data seed ``i + 1``; its
    resync interval alternates between ``None`` and 4 so both recovery
    modes meet every mix.  Stuck wires outside a layout are dropped.
    """
    links = []
    for i, (num_wires, delay, mix, policy) in enumerate(itertools.product(
        NUM_WIRES, WIRE_DELAYS, FAULT_MIXES, POLICIES
    )):
        stuck = tuple(w for w in mix.stuck_wires if w < num_wires)
        links.append({
            "num_wires": num_wires,
            "wire_delay": delay,
            "skip_policy": policy,
            "resync_interval": None if i % 2 == 0 else 4,
            "fault": replace(mix, stuck_wires=stuck, seed=i),
            "data_seed": i + 1,
        })
    return links


def measure(params: dict) -> dict:
    """One link's golden record (JSON-shaped)."""
    layout = ChunkLayout(
        block_bits=32, chunk_bits=4, num_wires=params["num_wires"]
    )
    fault: FaultConfig = params["fault"]
    injector = LinkFaultInjector(fault, layout.num_wires)
    link = DescLink(
        layout,
        skip_policy=params["skip_policy"],
        wire_delay=params["wire_delay"],
        injector=injector,
        resync_interval=params["resync_interval"],
    )
    rng = np.random.default_rng(params["data_seed"])
    blocks = rng.integers(
        0, 1 << layout.chunk_bits, size=(NUM_BLOCKS, layout.num_chunks)
    )
    costs = [asdict(link.send_block(block)) for block in blocks]
    record = {
        "params": {**params, "fault": asdict(fault)},
        "costs": costs,
        "delivered": [b.tolist() for b in link.receiver.received_blocks],
        "report": asdict(link.fault_report()),
        "injector": asdict(injector.stats()),
    }
    return json.loads(json.dumps(record))


def _load() -> list[dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


LINKS = golden_links()


class TestGoldenLinks:
    @pytest.fixture(scope="class")
    def measured(self) -> list[dict]:
        return [measure(params) for params in LINKS]

    def test_links_match_the_recorded_params(self, measured):
        assert [e["params"] for e in _load()] == [m["params"] for m in measured]

    def test_every_link_matches(self, measured):
        golden = _load()
        mismatched = [
            index for index, (entry, got) in enumerate(
                zip(golden, measured, strict=True)
            )
            if got != entry
        ]
        assert mismatched == []

    def test_links_exercise_every_fault_class(self, measured):
        """Coverage guard: the pinned links must keep reaching every
        fault class and the link's recovery paths across rounds."""
        totals = {
            name: sum(entry["injector"][name] for entry in measured)
            for name in (
                "dropped_toggles", "spurious_toggles", "strobe_glitches",
                "desync_events",
            )
        }
        totals.update({
            name: sum(entry["report"][name] for entry in measured)
            for name in ("blocks_lost", "resyncs")
        })
        totals["watchdog_aborts"] = sum(
            entry["report"]["receiver_events"]["watchdog_aborts"]
            for entry in measured
        )
        assert all(total > 0 for total in totals.values()), totals

    def test_multi_round_blocks_reach_the_receiver(self, measured):
        """Some blocks of every layout arrive whole, so the goldens pin
        multi-round framing, not only its failures."""
        for num_wires in NUM_WIRES:
            delivered = sum(
                len(entry["delivered"]) for entry in measured
                if entry["params"]["num_wires"] == num_wires
            )
            assert delivered > 0, num_wires


if __name__ == "__main__":
    records = [measure(params) for params in LINKS]
    with open(GOLDEN_PATH, "w") as fh:
        # One link per line keeps the file small and its diffs readable.
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} links to {GOLDEN_PATH}")
