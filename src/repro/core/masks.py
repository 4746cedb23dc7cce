"""A wire bank's levels as one Python integer.

The cycle-accurate endpoints (:mod:`repro.core.transmitter`,
:mod:`repro.core.receiver`) and the fault injector
(:mod:`repro.faults.injector`) hold the levels of a whole wire bank as
one ``int`` mask: bit 0 is the shared reset/skip wire and bit ``1 + i``
is data wire ``i`` — the order of the ``uint8`` level arrays that the
endpoints' array methods take and return.  A clock cycle then costs a
few integer XOR/AND operations and ``int.bit_count`` calls whatever the
wire count; NumPy runs once per round, through the row converters here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["levels_of", "mask_of", "pack_rows", "unpack_rows"]


def pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 matrix as an ``int``: column ``j`` → bit ``j``."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[start:start + width], "little")
        for start in range(0, len(data), width)
    ]


def unpack_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: a ``(len(masks), width)`` bool matrix."""
    nbytes = (width + 7) // 8
    data = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little").view(bool)


def mask_of(levels: np.ndarray, lines: int) -> int:
    """A validated level array (``lines`` entries of 0 or 1) as a mask."""
    if len(levels) != lines:
        raise ValueError(f"expected {lines} wire levels, got {len(levels)}")
    levels = np.asarray(levels)
    bad = (levels != 0) & (levels != 1)
    if np.count_nonzero(bad):
        line = int(np.argmax(bad))
        raise ValueError(
            f"level must be 0 or 1, got {levels[line]} on line {line}"
        )
    return pack_rows(levels.reshape(1, lines).astype(bool))[0]


def levels_of(mask: int, lines: int) -> np.ndarray:
    """A mask as a fresh ``uint8`` level array of ``lines`` entries."""
    return unpack_rows([mask], lines)[0].view(np.uint8).copy()
