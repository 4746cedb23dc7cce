"""Tests for the link-level fault injector (XOR wire-level model).

Levels are masks: bit 0 is the reset/skip wire, bit ``1 + i`` data
wire ``i``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import LinkFaultInjector
from repro.faults.processes import FaultConfig


def _drive(injector, sequence):
    """Run a driven-level sequence through ``perturb``; list outputs."""
    return [injector.perturb(levels) for levels in sequence]


def _toggling_sequence(num_wires, cycles):
    """All lines toggle every cycle (worst case for drop faults)."""
    lines = 1 + num_wires
    return [((1 << lines) - 1) * (cycle % 2) for cycle in range(cycles)]


class TestConstruction:
    def test_invalid_wire_count_rejected(self):
        with pytest.raises(ValueError, match="num_wires"):
            LinkFaultInjector(FaultConfig(), 0)

    def test_stuck_wire_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="stuck wire"):
            LinkFaultInjector(FaultConfig(stuck_wires=(4,)), 4)

    def test_perturb_validates_level_width(self):
        injector = LinkFaultInjector(FaultConfig(), 4)
        with pytest.raises(ValueError, match="wire levels"):
            injector.perturb(1 << 5)  # a level on line 5 of lines 0..4


class TestTransparency:
    def test_no_faults_is_identity(self):
        injector = LinkFaultInjector(FaultConfig(), 4)
        for levels in _toggling_sequence(4, 20):
            delivered = injector.perturb(levels)
            assert delivered == levels
        assert injector.stats().total_events == 0
        assert injector.stats().cycles == 20


class TestDropFaults:
    def test_certain_drop_freezes_delivered_levels(self):
        """drop_rate=1 masks every edge: the receiver-side levels never
        move, no matter how hard the transmitter toggles."""
        injector = LinkFaultInjector(FaultConfig(drop_rate=1.0), 4)
        outputs = _drive(injector, _toggling_sequence(4, 12))
        assert all(out == outputs[0] for out in outputs)
        # 5 lines x 11 toggling cycles (the first cycle has no edges).
        assert injector.dropped_toggles == 55

    def test_drop_inverts_parity_persistently(self):
        """One dropped toggle poisons the wire: after the drop, every
        delivered level is the inverse of the driven level — the
        counter-desynchronization hazard, as a wire-level fact."""
        injector = LinkFaultInjector(FaultConfig(drop_rate=1.0), 1)
        idle = 0b00
        up = 0b11
        injector.perturb(idle)
        injector.perturb(up)  # both edges dropped
        # The fault processes only fire on toggles, so from here on the
        # mask is frozen at "inverted".
        assert injector.deliver(up) == idle
        assert injector.deliver(idle) == up


class TestGlitchFaults:
    def test_certain_glitch_inverts_data_wires_every_cycle(self):
        injector = LinkFaultInjector(FaultConfig(glitch_rate=1.0), 3)
        idle = 0
        first = injector.perturb(idle)
        second = injector.perturb(idle)
        # Mask flips every cycle: odd perturbs invert, even restore.
        assert first >> 1 == 0b111
        assert second >> 1 == 0
        assert first & 1 == 0  # glitches never touch the strobe line
        assert injector.spurious_toggles == 6

    def test_strobe_glitch_only_touches_line_zero(self):
        injector = LinkFaultInjector(
            FaultConfig(strobe_glitch_rate=1.0), 3
        )
        idle = 0
        delivered = injector.perturb(idle)
        assert delivered & 1 == 1
        assert not delivered >> 1
        assert injector.strobe_glitches == 1


class TestStuckWires:
    @pytest.mark.parametrize("level", [0, 1])
    def test_stuck_wire_pins_delivered_level(self, level):
        injector = LinkFaultInjector(
            FaultConfig(stuck_wires=(1,), stuck_level=level), 3
        )
        for levels in _toggling_sequence(3, 10):
            delivered = injector.perturb(levels)
            assert (delivered >> 2) & 1 == level
            # Untouched wires still track the driven levels.
            assert (delivered >> 1) & 1 == (levels >> 1) & 1
            assert (delivered >> 3) & 1 == (levels >> 3) & 1


class TestDesyncEvents:
    def test_take_desync_fires_once_and_alternates(self):
        injector = LinkFaultInjector(FaultConfig(desync_rate=1.0), 2)
        idle = 0
        injector.perturb(idle)
        assert injector.take_desync() == 1
        assert injector.take_desync() == 0  # consumed
        injector.perturb(idle)
        assert injector.take_desync() == -1  # direction alternates
        assert injector.desync_events == 2


class TestDeliverVsPerturb:
    def test_deliver_never_advances_state(self):
        injector = LinkFaultInjector(
            FaultConfig(glitch_rate=0.5, drop_rate=0.5, seed=11), 4
        )
        levels = 0b11111
        injector.perturb(levels)
        snapshot = injector.stats()
        outputs = [injector.deliver(levels) for _ in range(10)]
        assert injector.stats() == snapshot
        for out in outputs[1:]:
            assert out == outputs[0]


class TestDeterminism:
    def test_same_seed_same_fault_stream(self):
        config = FaultConfig(
            drop_rate=0.2, glitch_rate=0.1, strobe_glitch_rate=0.05,
            desync_rate=0.02, seed=42,
        )
        a = LinkFaultInjector(config, 6)
        b = LinkFaultInjector(config, 6)
        rng = np.random.default_rng(5)
        for _ in range(200):
            levels = int(rng.integers(0, 1 << 7))
            assert a.perturb(levels) == b.perturb(levels)
            assert a.take_desync() == b.take_desync()
        assert a.stats() == b.stats()
        assert a.stats().total_events > 0  # the comparison saw real faults

    def test_different_seeds_diverge(self):
        a = LinkFaultInjector(FaultConfig(glitch_rate=0.3, seed=1), 8)
        b = LinkFaultInjector(FaultConfig(glitch_rate=0.3, seed=2), 8)
        idle = 0
        outputs_a = _drive(a, [idle] * 50)
        outputs_b = _drive(b, [idle] * 50)
        assert outputs_a != outputs_b
