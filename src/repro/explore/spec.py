"""Study specifications: the typed axes a study explores.

A :class:`StudySpec` names the design axes (what varies), the
applications driven through each point, the objectives, and the
search-shape knobs (budget, rounds, epsilon).  Axes are richer than the
plain value lists :func:`repro.sim.sweeps.expand_grid` takes — an
:class:`Axis` can be categorical, integer, or float, linear or
log-scaled — but every axis can also quantize itself onto a grid, so a
spec *compiles down* to the ``expand_grid`` substrate
(:meth:`StudySpec.to_grid`) when exhaustive enumeration is wanted.

The adaptive driver works in unit-cube coordinates: each axis maps a
coordinate ``u`` in ``[0, 1)`` to a concrete value
(:meth:`Axis.value_at`), and two coordinates that land on the same
concrete point deduplicate by the point's canonical key.

Specs are plain data.  :func:`load_spec` reads one from a JSON file,
:func:`preset_spec` returns the named built-ins (``quick``,
``frontier``), and :meth:`StudySpec.to_payload` round-trips a spec
through the same JSON shape for journaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["Axis", "StudySpec", "load_spec", "preset_spec", "PRESETS"]

#: Axis kinds an :class:`Axis` may declare.
_KINDS = ("categorical", "int", "float")

#: Objective names a spec may select (all minimized).
OBJECTIVES = ("energy_j", "latency_cycles", "risk")

#: Scheme names an axis named ``scheme`` may take (the CLI's spellings).
SCHEME_CHOICES = ("binary", "desc", "desc-zero", "desc-last-value")

#: Axis names routed to SchemeConfig fields.
_SCHEME_FIELDS = ("chunk_bits", "data_wires", "segment_bits")

#: Virtual axes consumed by the resilience model, not the simulator.
_LINK_FIELDS = ("fault_rate", "resync_interval")


@dataclass(frozen=True)
class Axis:
    """One design axis: a name plus the set/range it varies over.

    Attributes:
        name: Config field the axis drives — a
            :class:`~repro.sim.config.SchemeConfig` field
            (``chunk_bits``, ``data_wires``), a
            :class:`~repro.sim.config.SystemConfig` field
            (``num_banks``, ...), the virtual ``scheme`` axis, or one
            of the link axes (``fault_rate``, ``resync_interval``)
            consumed by the analytic resilience model.
        kind: ``"categorical"``, ``"int"``, or ``"float"``.
        values: The choices of a categorical axis, in order.
        low / high: Inclusive bounds of an int/float axis.
        log: Space the axis geometrically instead of linearly
            (int/float axes only; bounds must be positive).
    """

    name: str
    kind: str = "categorical"
    values: tuple[Any, ...] = ()
    low: float = 0.0
    high: float = 0.0
    log: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"axis {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "categorical":
            if not self.values:
                raise ValueError(
                    f"categorical axis {self.name!r} needs at least one value"
                )
        else:
            if not self.high >= self.low:
                raise ValueError(
                    f"axis {self.name!r}: high must be >= low, got "
                    f"[{self.low}, {self.high}]"
                )
            if self.log and self.low <= 0:
                raise ValueError(
                    f"log axis {self.name!r} needs positive bounds, "
                    f"got low={self.low}"
                )

    def value_at(self, u: float) -> Any:
        """The concrete value at unit coordinate ``u`` in ``[0, 1]``.

        Categorical axes partition the interval evenly; numeric axes
        interpolate (geometrically when ``log``), and int axes round to
        the nearest integer.  The mapping is monotone and pure, so the
        same coordinate always resolves to the same value.
        """
        u = min(max(u, 0.0), 1.0)
        if self.kind == "categorical":
            index = min(int(u * len(self.values)), len(self.values) - 1)
            return self.values[index]
        if self.log:
            raw = self.low * (self.high / self.low) ** u if self.high > self.low else self.low
        else:
            raw = self.low + (self.high - self.low) * u
        if self.kind == "int":
            return int(min(max(round(raw), self.low), self.high))
        return float(raw)

    def grid(self, resolution: int) -> list[Any]:
        """Quantize the axis onto at most ``resolution`` values.

        This is the bridge to the :func:`~repro.sim.sweeps.expand_grid`
        substrate: categorical axes return their value list, numeric
        axes return ``resolution`` evenly (or log-evenly) spaced
        values, deduplicated in order for int axes.
        """
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        if self.kind == "categorical":
            return list(self.values)
        if resolution == 1:
            return [self.value_at(0.5)]
        values = [
            self.value_at(i / (resolution - 1)) for i in range(resolution)
        ]
        deduped: list[Any] = []
        for value in values:
            if not deduped or value != deduped[-1]:
                deduped.append(value)
        return deduped

    def to_payload(self) -> dict:
        """The JSON shape of this axis (see :func:`load_spec`)."""
        payload: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.kind == "categorical":
            payload["values"] = list(self.values)
        else:
            payload["low"] = self.low
            payload["high"] = self.high
            payload["log"] = self.log
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Axis":
        """Build an axis from its JSON shape (strict keys)."""
        known = {"name", "kind", "values", "low", "high", "log"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown axis field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        if "name" not in payload:
            raise ValueError("axis is missing the required 'name' field")
        return cls(
            name=payload["name"],
            kind=payload.get("kind", "categorical"),
            values=tuple(payload.get("values", ())),
            low=float(payload.get("low", 0.0)),
            high=float(payload.get("high", 0.0)),
            log=bool(payload.get("log", False)),
        )


@dataclass(frozen=True)
class StudySpec:
    """Everything one exploration study is, as plain data.

    Attributes:
        name: Study name (labels the journal, reports, output dir).
        axes: The design axes, in a fixed order (the unit-cube
            dimensions of the sampler).
        apps: Application profiles driven through every design point
            (objectives aggregate across them, suite-geomean style).
        objectives: Objective names, all minimized (a subset of
            ``("energy_j", "latency_cycles", "risk")``).
        budget: Total design-point evaluations the study may spend.
        init_fraction: Fraction of the budget spent on the coarse
            low-discrepancy pass before refinement starts.
        max_rounds: Refinement rounds after the coarse pass.
        epsilon: Epsilon-dominance resolution of the frontier archive.
        sample_blocks: Per-application value-sample size (simulation
            cost knob, forwarded to SystemConfig).
        seed: Master seed; every random draw in the study flows from it.
    """

    name: str
    axes: tuple[Axis, ...]
    apps: tuple[str, ...] = ("Ocean", "FFT")
    objectives: tuple[str, ...] = OBJECTIVES
    budget: int = 64
    init_fraction: float = 0.5
    max_rounds: int = 4
    epsilon: float = 0.02
    sample_blocks: int = 1200
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a study needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if not self.apps:
            raise ValueError("a study needs at least one application")
        bad = sorted(set(self.objectives) - set(OBJECTIVES))
        if bad:
            raise ValueError(
                f"unknown objective(s) {', '.join(bad)}; "
                f"known: {', '.join(OBJECTIVES)}"
            )
        if len(self.objectives) < 2:
            raise ValueError("a Pareto study needs at least two objectives")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 < self.init_fraction <= 1.0:
            raise ValueError(
                f"init_fraction must be in (0, 1], got {self.init_fraction}"
            )
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.sample_blocks < 1:
            raise ValueError(
                f"sample_blocks must be >= 1, got {self.sample_blocks}"
            )

    @property
    def dimensions(self) -> int:
        """Number of unit-cube dimensions (one per axis)."""
        return len(self.axes)

    @property
    def init_samples(self) -> int:
        """Evaluations of the coarse pass (at least one)."""
        return max(1, int(math.ceil(self.budget * self.init_fraction)))

    def resolve(self, coordinates: Sequence[float]) -> dict[str, Any]:
        """Map unit-cube coordinates to concrete axis values, in order."""
        if len(coordinates) != len(self.axes):
            raise ValueError(
                f"{len(coordinates)} coordinates for {len(self.axes)} axes"
            )
        return {
            axis.name: axis.value_at(u)
            for axis, u in zip(self.axes, coordinates, strict=True)
        }

    def to_grid(self, resolution: int = 4) -> dict[str, list]:
        """Compile the axes to an :func:`~repro.sim.sweeps.expand_grid`
        field mapping — the exhaustive-enumeration substrate."""
        return {axis.name: axis.grid(resolution) for axis in self.axes}

    def with_(self, **changes: Any) -> "StudySpec":
        """A modified copy (dataclasses.replace convenience)."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def to_payload(self) -> dict:
        """The JSON shape of this spec (journals, spec files)."""
        return {
            "name": self.name,
            "axes": [axis.to_payload() for axis in self.axes],
            "apps": list(self.apps),
            "objectives": list(self.objectives),
            "budget": self.budget,
            "init_fraction": self.init_fraction,
            "max_rounds": self.max_rounds,
            "epsilon": self.epsilon,
            "sample_blocks": self.sample_blocks,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "StudySpec":
        """Build a spec from its JSON shape (strict keys)."""
        known = {
            "name", "axes", "apps", "objectives", "budget", "init_fraction",
            "max_rounds", "epsilon", "sample_blocks", "seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown study field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        for required in ("name", "axes"):
            if required not in payload:
                raise ValueError(
                    f"study is missing the required {required!r} field"
                )
        axes = tuple(
            Axis.from_payload(item) for item in payload["axes"]
        )
        spec = cls(
            name=payload["name"],
            axes=axes,
            apps=tuple(payload.get("apps", ("Ocean", "FFT"))),
            objectives=tuple(payload.get("objectives", OBJECTIVES)),
            budget=int(payload.get("budget", 64)),
            init_fraction=float(payload.get("init_fraction", 0.5)),
            max_rounds=int(payload.get("max_rounds", 4)),
            epsilon=float(payload.get("epsilon", 0.02)),
            sample_blocks=int(payload.get("sample_blocks", 1200)),
            seed=int(payload.get("seed", 0)),
        )
        return spec


def _frontier_axes() -> tuple[Axis, ...]:
    """The headline axes: everything the ISSUE/ROADMAP names."""
    return (
        Axis("scheme", "categorical", values=SCHEME_CHOICES),
        Axis("chunk_bits", "categorical", values=(2, 4, 8)),
        Axis("data_wires", "categorical", values=(32, 64, 128, 256)),
        Axis("num_banks", "categorical", values=(2, 4, 8, 16, 32)),
        Axis("resync_interval", "int", low=4, high=4096, log=True),
        Axis("fault_rate", "float", low=1e-9, high=1e-4, log=True),
    )


#: Built-in study specifications, by name.
PRESETS: dict[str, StudySpec] = {
    "quick": StudySpec(
        name="quick",
        axes=(
            Axis("scheme", "categorical",
                 values=("binary", "desc", "desc-zero")),
            Axis("data_wires", "categorical", values=(64, 128)),
            Axis("num_banks", "categorical", values=(4, 8, 16)),
            Axis("resync_interval", "int", low=8, high=512, log=True),
            Axis("fault_rate", "float", low=1e-8, high=1e-5, log=True),
        ),
        apps=("Ocean", "FFT"),
        budget=24,
        max_rounds=3,
        sample_blocks=300,
        seed=0,
    ),
    "frontier": StudySpec(
        name="frontier",
        axes=_frontier_axes(),
        apps=("Ocean", "CG", "FFT", "LU"),
        budget=256,
        max_rounds=6,
        sample_blocks=2000,
        seed=0,
    ),
}


def preset_spec(name: str) -> StudySpec:
    """The named built-in spec (``quick``, ``frontier``)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None


def load_spec(path: str | Path) -> StudySpec:
    """Read a :class:`StudySpec` from a JSON file.

    The file holds the shape :meth:`StudySpec.to_payload` emits; see
    ``docs/explore.md`` for the format reference.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"{path}: a study spec must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    return StudySpec.from_payload(payload)


# Routing helpers used by the evaluator -------------------------------


def split_params(params: Mapping[str, Any]) -> tuple[dict, dict, dict]:
    """Split resolved axis values into (scheme, system, link) groups.

    ``scheme`` collects the scheme choice and SchemeConfig fields,
    ``system`` everything destined for SystemConfig, and ``link`` the
    virtual axes the analytic resilience model consumes.
    """
    scheme: dict[str, Any] = {}
    system: dict[str, Any] = {}
    link: dict[str, Any] = {}
    for name, value in params.items():
        if name == "scheme" or name in _SCHEME_FIELDS:
            scheme[name] = value
        elif name in _LINK_FIELDS:
            link[name] = value
        else:
            system[name] = value
    return scheme, system, link
