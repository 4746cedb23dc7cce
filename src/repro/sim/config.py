"""Simulation configuration (Table 1) and scheme descriptions.

:class:`SystemConfig` carries the architecture of Table 1;
:class:`SchemeConfig` describes one data-transfer scheme instance —
which encoder, its bus width and segment/chunk parameters, and the
optional SECDED ECC configuration of Section 5.7 (named ``W-S`` in
Figures 28/29: ``W`` data wires, Hamming code applied per ``S``-bit
segment).
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, replace
from typing import Any

from repro.energy.technology import DEVICE_TYPES
from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_power_of_two,
)

__all__ = [
    "SchemeConfig",
    "SystemConfig",
    "DEFAULT_SYSTEM",
    "FIELD_TYPES",
    "MAX_CONTROLLER_OVERHEAD_CYCLES",
    "desc_scheme",
    "baseline_scheme",
]

_DESC_SCHEMES = frozenset({"desc", "desc+zero-skip", "desc+last-value-skip"})

#: Upper bound of ``SystemConfig.controller_overhead_cycles``.
MAX_CONTROLLER_OVERHEAD_CYCLES = 10**6


@dataclass(frozen=True)
class SchemeConfig:
    """One configured data-transfer scheme.

    Attributes:
        name: Registry name (see :mod:`repro.encoding.registry`).
        data_wires: Bus width — 64 for the baseline binary H-tree, 128
            for DESC (the paper's best configurations).
        segment_bits: Segment size for the segmented baselines
            (``None`` = the Figure 15 best configuration).
        chunk_bits: DESC chunk width.
        ecc_segment_bits: When set, protect the block with SECDED over
            segments of this many bits (Figures 28/29).
    """

    name: str = "binary"
    data_wires: int = 64
    segment_bits: int | None = None
    chunk_bits: int = 4
    ecc_segment_bits: int | None = None

    def __post_init__(self) -> None:
        require_positive("data_wires", self.data_wires)
        require_positive("chunk_bits", self.chunk_bits)

    @property
    def is_desc(self) -> bool:
        """Whether this scheme is a DESC variant."""
        return self.name in _DESC_SCHEMES

    @property
    def skip_policy(self) -> str:
        """DESC skip-policy name implied by the scheme name."""
        if not self.is_desc:
            raise ValueError(f"{self.name!r} is not a DESC scheme")
        return {
            "desc": "none",
            "desc+zero-skip": "zero",
            "desc+last-value-skip": "last-value",
        }[self.name]

    def label(self) -> str:
        """Human-readable label for figures."""
        if self.ecc_segment_bits:
            return f"{self.name} ({self.data_wires}-{self.ecc_segment_bits})"
        return self.name


def desc_scheme(
    skip: str = "zero",
    data_wires: int = 128,
    chunk_bits: int = 4,
    ecc_segment_bits: int | None = None,
) -> SchemeConfig:
    """Convenience constructor for DESC variants."""
    name = {"none": "desc", "zero": "desc+zero-skip", "last-value": "desc+last-value-skip"}
    if skip not in name:
        raise ValueError(f"skip must be one of {tuple(name)}, got {skip!r}")
    return SchemeConfig(
        name=name[skip],
        data_wires=data_wires,
        chunk_bits=chunk_bits,
        ecc_segment_bits=ecc_segment_bits,
    )


def baseline_scheme(
    name: str = "binary",
    data_wires: int = 64,
    segment_bits: int | None = None,
    ecc_segment_bits: int | None = None,
) -> SchemeConfig:
    """Convenience constructor for the binary-style baselines."""
    return SchemeConfig(
        name=name,
        data_wires=data_wires,
        segment_bits=segment_bits,
        ecc_segment_bits=ecc_segment_bits,
    )


@dataclass(frozen=True)
class SystemConfig:
    """The simulated system (Table 1).

    Attributes:
        l2_size_bytes: Shared L2 capacity (8 MB).
        l2_associativity: L2 ways (16).
        block_bytes: Cache block size (64 B).
        num_banks: L2 banks (8 in the baseline; Figure 25 sweeps this).
        subbanks_per_bank: Subbanks per bank (4, Figure 7).
        mats_per_subbank: Mats per subbank (4, Figure 7).
        cell_device / periph_device: ITRS device types (LSTP-LSTP best).
        clock_hz: Core and cache clock (3.2 GHz).
        core: ``"smt"`` (Niagara-like multicore) or ``"ooo"``.
        nuca: Model the 128-bank S-NUCA-1 organisation of Section 5.5.
        low_swing: Use low-swing H-tree wires instead of full-swing
            repeated wires (an orthogonal technique the paper cites
            [2, 7]; exercised by the low-swing ablation benchmark).
        null_directory: Serve all-zero blocks from a controller-side
            null-block directory, skipping the array access and the
            data transfer entirely (the storage-level optimization of
            Section 2's compression-related work; exercised by the
            null-directory ablation benchmark).
        controller_overhead_cycles: Tag/queue/controller latency added
            to every access, at most
            :data:`MAX_CONTROLLER_OVERHEAD_CYCLES` (10**6 cycles, about
            0.3 ms at 3.2 GHz, against a default of 4): far larger
            values leave the cores no busy time to divide by.
        sample_blocks: Block-value sample size per application.
        seed: Master seed for the workload generators.
    """

    l2_size_bytes: int = 8 * 1024 * 1024
    l2_associativity: int = 16
    block_bytes: int = 64
    num_banks: int = 8
    subbanks_per_bank: int = 4
    mats_per_subbank: int = 4
    cell_device: str = "LSTP"
    periph_device: str = "LSTP"
    clock_hz: float = 3.2e9
    core: str = "smt"
    nuca: bool = False
    low_swing: bool = False
    null_directory: bool = False
    controller_overhead_cycles: int = 4
    sample_blocks: int = 6000
    seed: int = 1

    def __post_init__(self) -> None:
        require_positive("l2_size_bytes", self.l2_size_bytes)
        require_positive("l2_associativity", self.l2_associativity)
        require_positive("block_bytes", self.block_bytes)
        require_power_of_two("num_banks", self.num_banks)
        require_power_of_two("subbanks_per_bank", self.subbanks_per_bank)
        require_power_of_two("mats_per_subbank", self.mats_per_subbank)
        require_positive("clock_hz", self.clock_hz)
        require_non_negative(
            "controller_overhead_cycles", self.controller_overhead_cycles
        )
        require_in_range(
            "controller_overhead_cycles", self.controller_overhead_cycles,
            0, MAX_CONTROLLER_OVERHEAD_CYCLES,
        )
        require_positive("sample_blocks", self.sample_blocks)
        require_non_negative("seed", self.seed)
        for name in ("cell_device", "periph_device"):
            if getattr(self, name) not in DEVICE_TYPES:
                raise ValueError(
                    f"{name} must be one of {tuple(DEVICE_TYPES)}, "
                    f"got {getattr(self, name)!r}"
                )
        if self.core not in ("smt", "ooo"):
            raise ValueError(f"core must be 'smt' or 'ooo', got {self.core!r}")

    def with_(self, **changes) -> "SystemConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **changes)


#: The paper's baseline system.
DEFAULT_SYSTEM = SystemConfig()


#: The value types a field annotation admits, and how to name them.
#: ``bool`` is not an ``int`` here: ``true`` is no bank count.
_VALUE_TYPES: dict[Any, tuple[tuple[type, ...], str]] = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((type(None),), "null"),
}


def _field_types(cls: type) -> dict[str, tuple[tuple[type, ...], str]]:
    """Each field of config dataclass ``cls``: its value types, named."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        options = [
            _VALUE_TYPES[arg]
            for arg in typing.get_args(hints[f.name]) or (hints[f.name],)
        ]
        table[f.name] = (
            tuple(t for accepted, _ in options for t in accepted),
            " or ".join(name for _, name in options),
        )
    return table


#: Per config class, each field's accepted value types and their name
#: (``"a boolean"``, ``"an integer or null"``).  Every input boundary
#: types values with it before a config sees them: the service codec's
#: JSON and ``repro sweep --field``.
FIELD_TYPES: dict[type, dict[str, tuple[tuple[type, ...], str]]] = {
    cls: _field_types(cls) for cls in (SchemeConfig, SystemConfig)
}
