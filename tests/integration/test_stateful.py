"""Stateful property testing: hypothesis drives random op sequences.

Two rule-based machines:

* :class:`MesiMachine` — random reads/writes/evictions against the MESI
  directory, checking the single-writer invariants and mirroring the
  expected per-core states in a model dictionary;
* :class:`LinkMachine` — random block sends interleaved with idle
  cycles over a last-value-skipping DESC link (the most stateful
  policy), asserting every block round-trips and the transmitter-side
  flip accounting matches the closed-form model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.cache.mesi import MesiDirectory, MesiState
from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.core.link import DescLink

CORES = st.integers(0, 3)
BLOCKS = st.integers(0, 4)


class MesiMachine(RuleBasedStateMachine):
    """Random coherence traffic against a 4-core directory."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = MesiDirectory(4)
        # Model: block -> set of cores with any valid copy.
        self.holders: dict[int, set[int]] = {}

    @rule(core=CORES, block=BLOCKS)
    def read(self, core, block):
        addr = block * 64
        outcome = self.directory.read(core, addr)
        # A re-read keeps whatever state the core already held (M/E/S);
        # a fresh read grants E or S.
        assert outcome.granted is not MesiState.INVALID
        self.holders.setdefault(addr, set()).add(core)

    @rule(core=CORES, block=BLOCKS)
    def write(self, core, block):
        addr = block * 64
        outcome = self.directory.write(core, addr)
        assert outcome.granted is MesiState.MODIFIED
        self.holders[addr] = {core}

    @rule(core=CORES, block=BLOCKS)
    def evict(self, core, block):
        addr = block * 64
        self.directory.evict(core, addr)
        self.holders.get(addr, set()).discard(core)

    @invariant()
    def directory_internally_consistent(self):
        self.directory.check_invariants()

    @invariant()
    def matches_model(self):
        for addr, cores in self.holders.items():
            actual = set(self.directory.sharers(addr))
            assert actual == cores, (hex(addr), actual, cores)


class LinkMachine(RuleBasedStateMachine):
    """Random sends and idles over a last-value DESC link."""

    def __init__(self) -> None:
        super().__init__()
        self.layout = ChunkLayout(block_bits=16, chunk_bits=4, num_wires=4)
        self.link = DescLink(self.layout, skip_policy="last-value", wire_delay=1)
        self.model = DescCostModel(self.layout, skip_policy="last-value")
        self.sent = 0

    @rule(values=st.lists(st.integers(0, 15), min_size=4, max_size=4))
    def send(self, values):
        block = np.array(values, dtype=np.int64)
        cost = self.link.send_block(block)
        predicted = self.model.block_cost(block)
        assert cost == predicted
        self.sent += 1
        assert np.array_equal(self.link.receiver.received_blocks[-1], block)

    @rule(cycles=st.integers(1, 6))
    def idle(self, cycles):
        flips_before = self.link.cost_so_far().total_flips
        for _ in range(cycles):
            self.link.step()
        assert self.link.cost_so_far().total_flips == flips_before

    @invariant()
    def all_blocks_delivered(self):
        assert len(self.link.receiver.received_blocks) == self.sent


TestMesiStateful = MesiMachine.TestCase
TestMesiStateful.settings = settings(max_examples=25, stateful_step_count=30,
                                     deadline=None)

TestLinkStateful = LinkMachine.TestCase
TestLinkStateful.settings = settings(max_examples=20, stateful_step_count=20,
                                     deadline=None)
