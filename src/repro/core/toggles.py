"""Toggle generator, detector, and regenerator circuits (Figure 8).

DESC signals by *toggling* wires rather than driving levels, so the
endpoints need three small circuits:

* :class:`ToggleGenerator` — flips its output wire each time it is pulsed
  (transmitter side).
* :class:`ToggleDetector` — compares the wire against a delayed copy and
  emits a pulse on every edge (receiver side).
* :class:`ToggleRegenerator` — forwards toggles from one of two H-tree
  branches upstream, remembering the previous state of each segment so a
  branch switch does not create spurious edges (used where the vertical
  H-tree is shared between subbanks, Figure 7).

Each circuit counts the transitions it drives so energy accounting can
audit flip counts end to end.

The cycle-accurate endpoints (:mod:`repro.core.transmitter`,
:mod:`repro.core.receiver`) model a whole wire bank of generators or
detectors as one level array; the objects here serve the H-tree
regenerators (:mod:`repro.interconnect.regenerator_tree`).
"""

from __future__ import annotations

__all__ = ["ToggleGenerator", "ToggleDetector", "ToggleRegenerator"]


class ToggleGenerator:
    """Drives a wire by flipping its level once per ``pulse()`` call."""

    def __init__(self, initial_level: int = 0) -> None:
        if initial_level not in (0, 1):
            raise ValueError(f"initial_level must be 0 or 1, got {initial_level}")
        self._level = initial_level
        self._transitions = 0

    @property
    def level(self) -> int:
        """Current logic level on the driven wire."""
        return self._level

    @property
    def transitions(self) -> int:
        """Total transitions driven since construction."""
        return self._transitions

    def pulse(self) -> int:
        """Flip the output and return the new level."""
        self._level ^= 1
        self._transitions += 1
        return self._level


class ToggleDetector:
    """Emits a pulse whenever the observed wire changes level.

    Models the XOR-against-delayed-input circuit of Figure 8-b: the
    detector holds the last observed level and reports an edge when the
    new sample differs.
    """

    def __init__(self, initial_level: int = 0) -> None:
        if initial_level not in (0, 1):
            raise ValueError(f"initial_level must be 0 or 1, got {initial_level}")
        self._last = initial_level
        self._edges = 0

    @property
    def edges(self) -> int:
        """Total edges detected since construction."""
        return self._edges

    def sample(self, level: int) -> bool:
        """Observe the wire; return ``True`` if an edge occurred."""
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level}")
        edge = level != self._last
        self._last = level
        if edge:
            self._edges += 1
        return edge

    def resync(self, level: int) -> None:
        """Re-arm on a wire without reporting an edge.

        Models re-enabling a clock-gated detector: the delayed-input
        comparator of Figure 8-b sees the current level on both inputs,
        so missed transitions never appear as stale edges.
        """
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level}")
        self._last = level


class ToggleRegenerator:
    """Merges toggles from two downstream branches onto one upstream wire.

    The select input (driven by address bits) picks the active branch.
    The regenerator keeps an independent :class:`ToggleDetector` per
    branch, so stale levels on the inactive branch never propagate, and a
    :class:`ToggleGenerator` for the upstream segment.
    """

    def __init__(self) -> None:
        self._detectors = (ToggleDetector(), ToggleDetector())
        self._output = ToggleGenerator()

    @property
    def output_level(self) -> int:
        """Current level of the upstream wire segment."""
        return self._output.level

    @property
    def upstream_transitions(self) -> int:
        """Transitions driven on the upstream segment."""
        return self._output.transitions

    def sample(self, branch0_level: int, branch1_level: int, select: int) -> bool:
        """Observe both branches; forward an edge from the selected one.

        Both detectors always sample (so their state tracks the physical
        wires), but only an edge on the selected branch is regenerated
        upstream.  Returns ``True`` if the upstream wire toggled.
        """
        if select not in (0, 1):
            raise ValueError(f"select must be 0 or 1, got {select}")
        edge0 = self._detectors[0].sample(branch0_level)
        edge1 = self._detectors[1].sample(branch1_level)
        edge = edge1 if select else edge0
        if edge:
            self._output.pulse()
        return edge
