"""Shared batched array primitives for the hot stream/trace kernels.

Every transfer scheme, the workload generator, and the trace-execution
engine reduce to a handful of array patterns: shifting a time series
against its own history, forward-filling the last "real" value down an
axis, counting level transitions on a wire, popcounting packed words,
and ranking events within groups.  This module is the one home for
those patterns — the encoders (:mod:`repro.encoding`), the closed-form
DESC model (:mod:`repro.core.analysis`), and the workload generator
(:mod:`repro.workloads.generator`) all route through it, so a kernel
improvement (e.g. the hardware ``popcount`` below) lands everywhere at
once.

All kernels are pure and allocation-disciplined: no Python-level loops
over elements, output dtypes fixed, and exact (bit-identical) with
respect to the scalar formulations they replace — the property tests in
``tests/kernels/test_batched.py`` pin that down.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount",
    "shifted_prev",
    "forward_fill_take",
    "level_transitions",
    "strobe_flips",
    "group_rank",
    "group_rank_sorted",
]

#: ``np.bitwise_count`` landed in NumPy 2.0; fall back to a 16-bit
#: lookup table on older installs (four table gathers per word).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT16: np.ndarray | None = None


def _popcount16_table() -> np.ndarray:
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        table = np.arange(1 << 16, dtype=np.uint16)
        counts = np.zeros(1 << 16, dtype=np.uint8)
        while table.any():
            counts += (table & 1).astype(np.uint8)
            table >>= 1
        _POPCOUNT16 = counts
    return _POPCOUNT16


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a non-negative integer array.

    Uses the hardware ``popcnt`` path (``np.bitwise_count``) when
    available; otherwise four 16-bit table lookups per 64-bit word —
    either way O(n) instead of the O(n * bits) shift-and-mask loop.
    """
    values = np.asarray(values).astype(np.uint64, copy=False)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values).astype(np.int64)
    table = _popcount16_table()
    mask = np.uint64(0xFFFF)
    counts = table[(values & mask).astype(np.int64)].astype(np.int64)
    for shift in (16, 32, 48):
        counts += table[((values >> np.uint64(shift)) & mask).astype(np.int64)]
    return counts


def shifted_prev(values: np.ndarray, initial=0) -> np.ndarray:
    """The series one step earlier along axis 0: ``prev[t] = values[t-1]``.

    ``prev[0]`` is ``initial`` — a scalar, or an array broadcastable to
    one time slice (e.g. the wire history carried in from an earlier
    stream).  This is the "state of the bus before the beat" pattern
    every level-driven encoder uses.
    """
    values = np.asarray(values)
    prev = np.empty_like(values)
    prev[0] = initial
    prev[1:] = values[:-1]
    return prev


def forward_fill_take(values: np.ndarray, keep: np.ndarray, axis: int = 0) -> np.ndarray:
    """Replace non-kept entries with the last kept entry along ``axis``.

    ``keep`` is a boolean array matching ``values``'s leading shape on
    ``axis`` (and broadcast over trailing dims is handled by the caller
    reshaping).  Entries before the first kept index keep their own
    value — positions where ``keep`` is ``True`` are sources, positions
    where it is ``False`` copy the nearest earlier source (or
    themselves if none exists).  Returns a gathered copy.

    This is the vectorized form of the sequential "carry the previous
    value forward" loop: repeat chains in the block generator, word
    copies inside a block, and held-bus forward fills all reduce to it.
    """
    values = np.asarray(values)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != values.shape[: keep.ndim]:
        raise ValueError(
            f"keep shape {keep.shape} does not prefix values shape {values.shape}"
        )
    length = values.shape[axis]
    index_shape = [1] * keep.ndim
    index_shape[axis] = length
    index = np.arange(length, dtype=np.int64).reshape(index_shape)
    source = np.where(keep, index, np.int64(-1))
    source = np.maximum.accumulate(source, axis=axis)
    # Positions before the first source keep themselves.
    source = np.where(source < 0, index, source)
    if keep.ndim < values.ndim:
        source = source.reshape(source.shape + (1,) * (values.ndim - keep.ndim))
        source = np.broadcast_to(source, values.shape)
    return np.take_along_axis(values, source, axis=axis)


def level_transitions(levels: np.ndarray, initial=0) -> np.ndarray:
    """Transitions of level-signalled wires along axis 0.

    ``levels`` is a 0/1 array whose axis 0 is time; ``initial`` is the
    level before the first step (wires reset low by default).  Returns
    an int64 array of the same shape with 1 wherever the level changed.
    """
    levels = np.asarray(levels).astype(np.int64)
    return np.abs(levels - shifted_prev(levels, initial))


def strobe_flips(cycles: np.ndarray, busy_before: int) -> tuple[np.ndarray, int]:
    """Synchronization-strobe flips per block, with carried parity.

    The DESC strobe flips once per two busy cycles; the busy-cycle
    parity persists across blocks (and across calls).  Given each
    block's busy ``cycles`` and the total busy cycles before the
    stream, returns the per-block strobe flips and the updated total.
    """
    cycles = np.asarray(cycles, dtype=np.int64)
    cum = busy_before + np.cumsum(cycles)
    prev = np.concatenate(([busy_before], cum[:-1]))
    flips = (cum + 1) // 2 - (prev + 1) // 2
    after = int(cum[-1]) if len(cum) else busy_before
    return flips, after


def group_rank(groups: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its group, in array order.

    ``groups`` is a 1-D integer array of group labels; the result's
    entry ``i`` is the number of earlier entries with the same label.
    This is the vectorized form of the "per-key running counter" loop
    (e.g. each thread's position within its private stream region).

    Dispatches through :mod:`repro.kernels.pipeline`: a dense counting
    pass in C when the native library is loaded and the label range is
    narrow, the stable-sort formulation below otherwise.
    """
    from repro.kernels import pipeline

    groups = np.asarray(groups)
    if groups.ndim != 1:
        raise ValueError(f"expected a 1-D group array, got shape {groups.shape}")
    return pipeline.group_rank(groups)


def group_rank_sorted(groups: np.ndarray) -> np.ndarray:
    """Stable-sort formulation of :func:`group_rank` (pure NumPy tier)."""
    groups = np.asarray(groups)
    n = len(groups)
    rank = np.empty(n, dtype=np.int64)
    if n == 0:
        return rank
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_groups[1:] != sorted_groups[:-1]
    # Position within the sorted array, rebased at each group boundary.
    position = np.arange(n, dtype=np.int64)
    start = forward_fill_take(position, boundary)
    rank[order] = position - start
    return rank
