"""Generic parameter sweeps over the system simulator.

The per-figure experiments hard-code their sweeps; this module offers
the same machinery to downstream users: take a base
:class:`~repro.sim.config.SystemConfig`, a scheme, a set of
applications, and any number of config fields with value lists, and get
back one :class:`SweepPoint` per combination with suite-geomean
metrics.

Example::

    from repro.sim import SystemConfig, desc_scheme
    from repro.sim.sweeps import sweep

    points = sweep(
        desc_scheme("zero"),
        base=SystemConfig(sample_blocks=2000),
        num_banks=[2, 8, 32],
        l2_size_bytes=[2**21, 2**23],
    )
    for p in points:
        print(p.params, p.l2_energy_j, p.cycles)

Sweeps run through :func:`repro.sim.engine.simulate_many`, so passing
``max_workers=4`` fans the (combination × application) grid out over a
process pool with bit-for-bit identical results (``repro sweep
--workers 4`` at the CLI).
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from repro.util.stats import geomean
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.engine import FailedJob, SimJob, simulate_many
from repro.workloads.profiles import AppProfile
from repro.workloads.suites import PARALLEL_SUITE

__all__ = [
    "FailedPoint",
    "SweepPoint",
    "SweepResult",
    "aggregate_points",
    "expand_grid",
    "sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """Suite-geomean metrics at one parameter combination.

    Attributes:
        params: The swept field values of this point.
        cycles: Geomean execution time (cycles).
        l2_energy_j: Geomean L2 energy.
        processor_energy_j: Geomean processor energy.
        hit_latency: Mean L2 hit latency across the suite.
    """

    params: dict[str, object]
    cycles: float
    l2_energy_j: float
    processor_energy_j: float
    hit_latency: float

    @property
    def edp(self) -> float:
        """L2 energy-delay product (the paper's Figure 24/26 metric)."""
        return self.l2_energy_j * self.cycles


@dataclass(frozen=True)
class FailedPoint:
    """One failed (combination, application) simulation of a sweep.

    Attributes:
        params: The swept field values of the degraded combination.
        app: Application whose simulation failed.
        reason: The engine's failure reason (timeout, crash, ...).
        attempts: How many times the engine tried the job.
    """

    params: dict[str, object]
    app: str
    reason: str
    attempts: int


class SweepResult(list):
    """The sweep points, plus what failed along the way.

    A plain ``list`` of :class:`SweepPoint` (fully backward compatible
    with callers that index or iterate), with the degradations that
    were previously only visible as warnings attached as data:
    ``failed_points`` holds one :class:`FailedPoint` per failed
    (combination, application) simulation, in job order, so callers —
    the CLI, the explorer, services — can report *which* configs
    degraded and why without scraping warning text.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint] = (),
        failed_points: Sequence[FailedPoint] = (),
    ) -> None:
        super().__init__(points)
        self.failed_points: list[FailedPoint] = list(failed_points)


def expand_grid(field_values: dict[str, Sequence]) -> list[dict[str, object]]:
    """Every combination of the given field/value lists, in grid order.

    The order is the cartesian product with the *first* field slowest —
    stable for a given input, so sweep outputs (and the service's sweep
    responses) are reproducible.
    """
    if not field_values:
        raise ValueError("provide at least one field to sweep")
    names = list(field_values)
    return [
        dict(zip(names, combo, strict=True))
        for combo in itertools.product(*field_values.values())
    ]


def aggregate_points(
    combos: Sequence[dict[str, object]],
    apps: Sequence[AppProfile],
    results: Sequence,
) -> SweepResult:
    """Fold per-(combo, app) results into suite-geomean sweep points.

    ``results`` is job-ordered — every app of combo 0, then every app
    of combo 1, ... exactly as the job list of :func:`sweep` (and the
    service's sweep endpoint) is built.  A :class:`FailedJob` slot
    degrades its point instead of sinking the sweep: warn (naming the
    failing config and every per-application reason), record a
    :class:`FailedPoint` on the returned :class:`SweepResult`, and
    aggregate over the survivors — NaNs when no application of the
    combination completed.
    """
    if len(results) != len(combos) * len(apps):
        raise ValueError(
            f"{len(results)} results do not cover {len(combos)} combos x "
            f"{len(apps)} apps"
        )
    points = SweepResult()
    for index, params in enumerate(combos):
        group = results[index * len(apps):(index + 1) * len(apps)]
        failed = [
            FailedPoint(
                params=dict(params),
                app=app.name,
                reason=r.reason,
                attempts=r.attempts,
            )
            for app, r in zip(apps, group, strict=True)
            if isinstance(r, FailedJob)
        ]
        if failed:
            points.failed_points.extend(failed)
            details = "; ".join(f"{f.app}: {f.reason}" for f in failed)
            warnings.warn(
                f"{len(failed)} of {len(group)} simulations failed at "
                f"config {params} ({details}); point computed from the "
                f"remaining {len(group) - len(failed)}",
                RuntimeWarning,
                stacklevel=2,
            )
        ok = [r for r in group if not isinstance(r, FailedJob)]
        if not ok:
            points.append(
                SweepPoint(
                    params=params,
                    cycles=math.nan,
                    l2_energy_j=math.nan,
                    processor_energy_j=math.nan,
                    hit_latency=math.nan,
                )
            )
            continue
        points.append(
            SweepPoint(
                params=params,
                cycles=geomean(r.cycles for r in ok),
                l2_energy_j=geomean(r.l2_energy_j for r in ok),
                processor_energy_j=geomean(
                    r.processor_energy_j for r in ok
                ),
                hit_latency=sum(r.hit_latency for r in ok) / len(ok),
            )
        )
    return points


def sweep(
    scheme: SchemeConfig,
    base: SystemConfig | None = None,
    apps: Sequence[AppProfile] = PARALLEL_SUITE,
    max_workers: int = 1,
    **field_values: Sequence,
) -> SweepResult:
    """Simulate every combination of the given SystemConfig fields.

    ``max_workers`` > 1 distributes the whole grid over a process pool;
    the returned points are identical to a serial run.  The result is a :class:`SweepResult`:
    a list of :class:`SweepPoint`, with any per-application failures
    surfaced on ``result.failed_points``.
    """
    base = base if base is not None else SystemConfig()
    combos = expand_grid(field_values)
    jobs = [
        SimJob.of(app, scheme, base.with_(**params))
        for params in combos
        for app in apps
    ]
    results = simulate_many(jobs, max_workers=max_workers)
    return aggregate_points(combos, apps, results)
