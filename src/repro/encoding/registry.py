"""Factory for the eight data-transfer schemes of Figure 16.

The registry maps the scheme names used throughout the figures to
configured :class:`~repro.encoding.base.BusEncoder` instances.  As the
paper does (Section 4.1), each segmented baseline defaults to its
best-performing segment size; the paper marks its picks with stars in
Figure 15 without printing the values, so the defaults below are the
bests *our* Figure 15 harness derives on the synthetic workloads:
8-bit segments for dynamic zero compression, 4-bit for bus-invert
coding, and 8-bit for the two zero-skipped bus-invert variants.

Beyond raw encoders, the registry also dispatches whole *transfer
models* — the :class:`TransferModel` protocol the staged simulation
engine (:mod:`repro.sim.engine`) consumes.  A transfer model wraps a
scheme's complete system-level behaviour: stream statistics (with or
without ECC extension and null-block filtering), the encode/decode
latency it adds to a hit, and any controller-side switching it charges
per write.  DESC variants, the binary-style baselines, and their
ECC-wrapped forms all present this one interface, so the engine's run
loop never branches on what kind of scheme it is driving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.encoding.base import BusEncoder
from repro.encoding.binary import BinaryEncoder
from repro.encoding.bus_invert import BusInvertEncoder
from repro.encoding.desc import DescEncoder
from repro.encoding.serial import SerialEncoder
from repro.encoding.zero_compression import ZeroCompressionEncoder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.config import SchemeConfig, SystemConfig
    from repro.sim.metrics import TransferStats
    from repro.sim.stages import WorkloadSample

__all__ = [
    "FIGURE16_SCHEMES",
    "TransferModel",
    "make_encoder",
    "make_transfer_model",
    "register_transfer_model",
    "resolve_segment_bits",
    "scheme_names",
    "transfer_model_names",
]

#: Scheme names in the order Figure 16 plots them.
FIGURE16_SCHEMES = (
    "binary",
    "zero-compression",
    "bus-invert",
    "bus-invert+zero-skip",
    "bus-invert+encoded-zero-skip",
    "desc",
    "desc+zero-skip",
    "desc+last-value-skip",
)

#: Best segment size per baseline scheme (bits), re-derived by the
#: Figure 15 harness (``repro.experiments.fig15_segment_size``).
BEST_SEGMENT_BITS = {
    "zero-compression": 8,
    "bus-invert": 4,
    "bus-invert+zero-skip": 8,
    "bus-invert+encoded-zero-skip": 8,
}


def resolve_segment_bits(name: str, segment_bits: int | None) -> int | None:
    """The segment width scheme ``name`` runs at: ``segment_bits``, or a
    segmented baseline's Figure 15 best when it is left unset."""
    if segment_bits or name not in BEST_SEGMENT_BITS:
        return segment_bits
    return BEST_SEGMENT_BITS[name]


def scheme_names() -> tuple[str, ...]:
    """All encoder names the registry can build."""
    return FIGURE16_SCHEMES + ("serial",)


def make_encoder(
    name: str,
    block_bits: int = 512,
    data_wires: int = 64,
    segment_bits: int | None = None,
    desc_wires: int = 128,
    chunk_bits: int = 4,
) -> BusEncoder:
    """Build a configured encoder by scheme name.

    Args:
        name: One of :func:`scheme_names`.
        block_bits: Cache block size in bits.
        data_wires: Bus width for the binary-style schemes (the paper's
            baseline L2 uses a 64-bit data H-tree).
        segment_bits: Segment size for the segmented baselines; defaults
            to the per-scheme best configuration of Figure 15.
        desc_wires: Data-wire count for the DESC variants (paper: 128).
        chunk_bits: DESC chunk width (paper: 4).
    """
    bits = resolve_segment_bits(name, segment_bits)
    if name == "binary":
        return BinaryEncoder(block_bits, data_wires)
    if name == "serial":
        return SerialEncoder(block_bits)
    if name == "zero-compression":
        return ZeroCompressionEncoder(block_bits, data_wires, bits)
    if name == "bus-invert":
        return BusInvertEncoder(block_bits, data_wires, bits, zero_skipping=None)
    if name == "bus-invert+zero-skip":
        return BusInvertEncoder(block_bits, data_wires, bits, zero_skipping="sparse")
    if name == "bus-invert+encoded-zero-skip":
        return BusInvertEncoder(block_bits, data_wires, bits, zero_skipping="encoded")
    if name == "desc":
        return DescEncoder(block_bits, desc_wires, chunk_bits, skip_policy="none")
    if name == "desc+zero-skip":
        return DescEncoder(block_bits, desc_wires, chunk_bits, skip_policy="zero")
    if name == "desc+last-value-skip":
        return DescEncoder(block_bits, desc_wires, chunk_bits, skip_policy="last-value")
    raise ValueError(f"unknown scheme {name!r}; expected one of {scheme_names()}")


# ----------------------------------------------------------------------
# Transfer-model dispatch (the staged engine's scheme interface)
# ----------------------------------------------------------------------


@runtime_checkable
class TransferModel(Protocol):
    """Everything the simulation engine needs to know about a scheme.

    One implementation covers a family of schemes (all DESC variants,
    all binary-style baselines); the registry maps each scheme *name*
    to its family's factory.  Implementations must be pure: the same
    inputs always yield the same outputs, so stage results can be
    memoized in the result store and recomputed in pool workers.
    """

    scheme: "SchemeConfig"

    def transfer_stats(
        self, sample: "WorkloadSample", exclude_null: bool = False
    ) -> "TransferStats":
        """Mean per-block wire activity on a workload sample.

        With ``exclude_null`` the statistics cover only non-null blocks
        (a null-block directory intercepts the all-zero transfers).
        """
        ...

    def scheme_delay_cycles(
        self, stats: "TransferStats", system: "SystemConfig"
    ) -> float:
        """Encode/decode latency the scheme adds to every L2 hit."""
        ...

    def controller_write_flips(self, system: "SystemConfig") -> float:
        """Extra controller-side wire flips charged per written block."""
        ...


TransferModelFactory = Callable[["SchemeConfig"], "TransferModel"]

_TRANSFER_MODELS: dict[str, TransferModelFactory] = {}


def register_transfer_model(
    names: Iterable[str], factory: TransferModelFactory
) -> None:
    """Register a transfer-model factory for the given scheme names.

    Later registrations win, so downstream code can override a stock
    family (e.g. to wrap it with instrumentation).
    """
    for name in names:
        _TRANSFER_MODELS[name] = factory


def _ensure_default_models() -> None:
    # The stock implementations live in repro.sim.transfer (they build
    # on the sim-layer dataclasses); importing the module registers
    # them.  Imported lazily to keep repro.encoding importable without
    # the sim package.
    if not _TRANSFER_MODELS:
        import repro.sim.transfer  # noqa: F401  (registers on import)


def transfer_model_names() -> tuple[str, ...]:
    """Scheme names with a registered transfer model."""
    _ensure_default_models()
    return tuple(sorted(_TRANSFER_MODELS))


def make_transfer_model(scheme: "SchemeConfig") -> "TransferModel":
    """Build the transfer model for a configured scheme.

    This is the single dispatch point between the simulation engine and
    the scheme zoo: the engine never inspects ``scheme.name`` (or any
    ``is_desc`` flag) itself.
    """
    _ensure_default_models()
    try:
        factory = _TRANSFER_MODELS[scheme.name]
    except KeyError:
        raise ValueError(
            f"no transfer model registered for scheme {scheme.name!r}; "
            f"known schemes: {transfer_model_names()}"
        ) from None
    return factory(scheme)
