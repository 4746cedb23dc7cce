"""Value-skipping policies for DESC (Section 3.3).

By default every chunk costs one wire transition.  *Value skipping*
removes the transition for chunks equal to a predictable "skip value":
wires that stay silent for a whole time window are assigned the skip
value when the window closes (second toggle of the shared reset/skip
wire).  The paper evaluates three policies:

* :class:`NoSkipping` — basic DESC, every chunk toggles its wire.
* :class:`ZeroSkipping` — skip value is the constant 0, exploiting the
  ~31 % of zero chunks (Figure 12).
* :class:`LastValueSkipping` — the skip value of each wire is the last
  value transmitted on that wire, exploiting the ~39 % of repeated
  chunks (Figure 13).  This requires per-wire history at both endpoints.

A policy instance is *stateful* (last-value tracking) and must be shared
logically between the transmitter and receiver models; each side owns its
own copy and the protocol keeps them coherent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "SkipPolicy",
    "NoSkipping",
    "ZeroSkipping",
    "LastValueSkipping",
    "make_policy",
]


class SkipPolicy(ABC):
    """Decides, per wire, which chunk value is transmitted implicitly.

    The interface works on whole wire banks: :meth:`skip_values` answers
    for every wire of the next round at once and :meth:`observe_round`
    records a whole round's delivered values.
    """

    #: Short identifier used in configs, figures, and registries.
    name: str = "abstract"

    #: Whether the policy skips at all (False only for basic DESC).
    enables_skipping: bool = True

    @abstractmethod
    def skip_values(self) -> np.ndarray | None:
        """Values silent wires take this round, or ``None`` if no skipping.

        The array broadcasts against one entry per wire: a 0-d array
        when every wire shares its skip value.  It is the caller's own
        copy, unaffected by later observations.
        """

    @abstractmethod
    def observe_round(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        """Record one round's delivered values (sent or skipped).

        ``keep`` masks the wires whose value is known; wires outside it
        (a receiver's detected losses) leave their history untouched.
        ``None`` keeps every wire.
        """

    @abstractmethod
    def reset(self) -> None:
        """Forget accumulated history (new simulation, not new block)."""

    @abstractmethod
    def clone(self) -> "SkipPolicy":
        """Fresh policy with the same configuration but cleared history."""


class NoSkipping(SkipPolicy):
    """Basic DESC: every chunk is transmitted with an explicit toggle."""

    name = "none"
    enables_skipping = False

    def skip_values(self) -> np.ndarray | None:
        return None

    def observe_round(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        pass

    def reset(self) -> None:
        pass

    def clone(self) -> "NoSkipping":
        return NoSkipping()


class ZeroSkipping(SkipPolicy):
    """Skip the constant value zero (the paper's best-performing variant)."""

    name = "zero"

    def skip_values(self) -> np.ndarray | None:
        return np.zeros((), dtype=np.int64)

    def observe_round(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        pass

    def reset(self) -> None:
        pass

    def clone(self) -> "ZeroSkipping":
        return ZeroSkipping()


class LastValueSkipping(SkipPolicy):
    """Skip a repeat of the previous chunk sent on the same wire.

    Wires start with an assumed history of zero, matching hardware that
    resets its last-value registers at power-up.
    """

    name = "last-value"

    def __init__(self, num_wires: int) -> None:
        if num_wires <= 0:
            raise ValueError(f"num_wires must be positive, got {num_wires}")
        self._num_wires = num_wires
        self._last = np.zeros(num_wires, dtype=np.int64)

    @property
    def num_wires(self) -> int:
        """Number of wires whose history is tracked."""
        return self._num_wires

    def skip_values(self) -> np.ndarray | None:
        return self._last.copy()

    def observe_round(self, values: np.ndarray, keep: np.ndarray | None = None) -> None:
        np.copyto(self._last, values, where=True if keep is None else keep)

    def reset(self) -> None:
        self._last[:] = 0

    def clone(self) -> "LastValueSkipping":
        return LastValueSkipping(self._num_wires)


def make_policy(name: str, num_wires: int) -> SkipPolicy:
    """Build a skip policy from its config name.

    Accepted names: ``"none"`` (basic DESC), ``"zero"``, ``"last-value"``.
    """
    if name == NoSkipping.name:
        return NoSkipping()
    if name == ZeroSkipping.name:
        return ZeroSkipping()
    if name == LastValueSkipping.name:
        return LastValueSkipping(num_wires)
    raise ValueError(f"unknown skip policy {name!r}")
