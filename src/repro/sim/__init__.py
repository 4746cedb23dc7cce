"""System simulation: configuration, the staged engine, and sweeps.

The package splits into layers (see DESIGN.md §4):

* :mod:`repro.sim.config` / :mod:`repro.sim.metrics` — typed inputs
  and outputs;
* :mod:`repro.sim.stages` — the five pure pipeline stages;
* :mod:`repro.sim.store` — the unified, keyed result store;
* :mod:`repro.sim.engine` — the :class:`StagedEngine` orchestrator,
  :func:`simulate_many` batch API, and process-pool fan-out;
* :mod:`repro.sim.system` — the stable ``simulate()`` front door;
* :mod:`repro.sim.sweeps` — grid sweeps on top of the batch API.
"""

from repro.sim.config import (
    DEFAULT_SYSTEM,
    SchemeConfig,
    SystemConfig,
    baseline_scheme,
    desc_scheme,
)
from repro.sim.engine import (
    FailedJob,
    SimJob,
    StagedEngine,
    simulate_many,
)
from repro.sim.metrics import FaultStats, L2Energy, RunResult, TransferStats
from repro.sim.store import RESULT_STORE, ResultStore, StoreStats
from repro.sim.sweeps import SweepPoint, sweep
from repro.sim.system import cache_stats, clear_caches, simulate, transfer_stats

__all__ = [
    "DEFAULT_SYSTEM",
    "FailedJob",
    "FaultStats",
    "L2Energy",
    "RESULT_STORE",
    "ResultStore",
    "RunResult",
    "SchemeConfig",
    "SimJob",
    "StagedEngine",
    "StoreStats",
    "SweepPoint",
    "SystemConfig",
    "TransferStats",
    "baseline_scheme",
    "cache_stats",
    "clear_caches",
    "desc_scheme",
    "simulate",
    "simulate_many",
    "sweep",
    "transfer_stats",
]
