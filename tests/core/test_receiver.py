"""Unit tests for the cycle-accurate DESC receiver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunking import ChunkLayout
from repro.core.receiver import DescReceiver
from repro.core.skipping import ZeroSkipping


def levels(reset: int, *data: int) -> np.ndarray:
    """Build a wire-level vector (reset/skip first)."""
    return np.array([reset, *data], dtype=np.uint8)


class TestDecoding:
    def test_decodes_basic_value(self):
        """Reset toggle then a data toggle on counter value 2 → chunk 2
        (the Figure 5 first transfer)."""
        layout = ChunkLayout(block_bits=4, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        rx.step(levels(1, 0))  # cycle 0: reset toggles
        rx.step(levels(1, 0))  # cycle 1
        rx.step(levels(1, 1))  # cycle 2: data toggle
        assert rx.received_blocks[-1].tolist() == [2]

    def test_value_zero_with_reset_cycle(self):
        layout = ChunkLayout(block_bits=4, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        rx.step(levels(1, 1))  # reset and data toggle together: value 0
        assert rx.received_blocks[-1].tolist() == [0]

    def test_skip_command_fills_pending(self):
        """A second reset/skip toggle assigns the skip value to silent
        wires (Section 3.3)."""
        layout = ChunkLayout(block_bits=8, chunk_bits=4, num_wires=2)
        rx = DescReceiver(layout, ZeroSkipping())
        rx.step(levels(1, 0, 0))  # round opens
        rx.step(levels(1, 0, 0))
        rx.step(levels(1, 0, 1))  # wire 1 fires on cycle 2 → value 2
        rx.step(levels(0, 0, 1))  # closing skip toggle
        assert rx.received_blocks[-1].tolist() == [0, 2]

    def test_idle_receiver_ignores_steady_levels(self):
        layout = ChunkLayout(block_bits=4, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        for _ in range(5):
            rx.step(levels(0, 0))
        assert not rx.in_round
        assert rx.received_blocks == []

    def test_unexpected_data_toggle_raises(self):
        layout = ChunkLayout(block_bits=4, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        with pytest.raises(RuntimeError, match="no chunk pending"):
            rx.step(levels(0, 1))

    def test_wrong_level_count_raises(self):
        layout = ChunkLayout(block_bits=4, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        with pytest.raises(ValueError, match="wire levels"):
            rx.step(np.array([0, 0, 0], dtype=np.uint8))


class TestMultiRound:
    def test_rounds_assemble_into_block(self):
        """Two rounds on one wire: values 2 then 1 (Figure 5)."""
        layout = ChunkLayout(block_bits=8, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout)
        rx.step(levels(1, 0))  # round 1 reset
        rx.step(levels(1, 0))
        rx.step(levels(1, 1))  # value 2, round done
        rx.step(levels(0, 1))  # round 2 reset (reset wire toggles back)
        rx.step(levels(0, 0))  # value 1: data toggles on cycle 1
        assert rx.received_blocks[-1].tolist() == [2, 1]

    def test_policy_history_updates_per_round(self):
        """The receiver's last-value history must track delivered values
        so later rounds decode correctly."""
        from repro.core.skipping import LastValueSkipping

        layout = ChunkLayout(block_bits=8, chunk_bits=4, num_wires=1)
        rx = DescReceiver(layout, LastValueSkipping(1))
        # Round 1: skip value 0, data fires cycle 3 → value 3.
        rx.step(levels(1, 0))
        rx.step(levels(1, 0))
        rx.step(levels(1, 0))
        rx.step(levels(1, 1))
        # Round 2: skip value now 3; fire on cycle 2 → value decodes as 1
        # (count list excludes 3, so cycle 2 still means value 1).
        rx.step(levels(0, 1))
        rx.step(levels(0, 1))
        rx.step(levels(0, 0))
        assert rx.received_blocks[-1].tolist() == [3, 1]


class TestChecks:
    """Input and protocol checks that hold for any receiver state."""

    def test_level_outside_binary_raises_in_step(self):
        layout = ChunkLayout(block_bits=8, chunk_bits=4, num_wires=2)
        rx = DescReceiver(layout)
        with pytest.raises(ValueError, match="0 or 1"):
            rx.step(levels(0, 0, 2))

    def test_level_outside_binary_raises_in_resync(self):
        layout = ChunkLayout(block_bits=8, chunk_bits=4, num_wires=2)
        rx = DescReceiver(layout)
        with pytest.raises(ValueError, match="0 or 1"):
            rx.resync(levels(2, 0, 0))

    def test_strict_unexpected_toggle_names_the_wire(self):
        layout = ChunkLayout(block_bits=16, chunk_bits=4, num_wires=4)
        rx = DescReceiver(layout)
        with pytest.raises(RuntimeError, match="wire 3"):
            rx.step(levels(0, 0, 0, 0, 1))

    def test_strict_cycle_zero_toggle_of_skipping_round_raises(self):
        """Under zero skipping no chunk fires on the reset cycle."""
        layout = ChunkLayout(block_bits=16, chunk_bits=4, num_wires=4)
        rx = DescReceiver(layout, ZeroSkipping())
        with pytest.raises(ValueError, match="cycle 0"):
            rx.step(levels(1, 0, 1, 0, 0))


class TestNonStrictEvents:
    def test_counts_spurious_out_of_range_and_watchdog(self):
        """2-bit chunks: values 0..3, so the watchdog allows cycle 5."""
        layout = ChunkLayout(block_bits=4, chunk_bits=2, num_wires=2)
        rx = DescReceiver(layout, strict=False)
        rx.step(levels(0, 1, 0))  # data toggle with no round open
        rx.step(levels(1, 1, 0))  # round opens: counter 0
        for _ in range(3):
            rx.step(levels(1, 1, 0))  # counter 1..3
        rx.step(levels(1, 0, 0))  # wire 0 on counter 4: out of range
        rx.step(levels(1, 0, 0))  # counter 5: still a legal window
        assert rx.in_round and not rx.desynced
        rx.step(levels(1, 0, 0))  # counter 6: watchdog abandons the round
        events = rx.fault_events
        assert events.spurious_toggles == 1
        assert events.out_of_range_decodes == 1
        assert events.watchdog_aborts == 1
        assert events.detected == 3
        assert rx.desynced
        assert rx.received_blocks[-1].tolist() == [-1, -1]
