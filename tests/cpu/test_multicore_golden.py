"""Golden multicore runs: whole ``MulticoreStats`` pinned per configuration.

``multicore_golden.json`` holds the full statistics of the event-driven
simulator on the 6000-reference, seed-11 traces of Ocean, CG and mcf:
each application at the transfer windows of the golden analytic
configurations (8, 14, 15 and 16 cycles), plus Ocean under S-NUCA-1,
with a single L2 bank, and value-aware (per-transfer DESC windows from
Radix's block values), plus three traces run back to back on one
simulator.  The accumulated case pins what a second run inherits: the
caches, the directory, the DRAM rows and the window index carry over,
counters accumulate, and ``cycles`` and ``bank_conflicts`` describe the
latest run.  Any change to the event loop, the cache models or the
DRAM model shows up here as a mismatch.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/cpu/test_multicore_golden.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cpu.multicore import (
    MulticoreConfig,
    MulticoreSimulator,
    desc_transfer_windows,
)
from repro.workloads.generator import MemoryTrace, memory_trace
from repro.workloads.profiles import profile

GOLDEN_PATH = Path(__file__).parent / "multicore_golden.json"

APPS = ("Ocean", "CG", "mcf")
WINDOWS = (8, 14, 15, 16)
TRACE_REFERENCES = 6000
TRACE_SEED = 11


def golden_cases() -> dict[str, tuple[tuple[str, ...], MulticoreConfig]]:
    """Case name → (applications run in order, configuration)."""
    cases = {
        f"{app}-w{window}": ((app,), MulticoreConfig(l2_transfer_cycles=window))
        for app in APPS
        for window in WINDOWS
    }
    windows = tuple(int(w) for w in desc_transfer_windows("Radix", 4000))
    cases["Ocean-nuca"] = (("Ocean",), MulticoreConfig(nuca=True))
    cases["Ocean-1bank"] = (("Ocean",), MulticoreConfig(l2_banks=1))
    cases["Ocean-value-aware"] = (
        ("Ocean",), MulticoreConfig(transfer_windows=windows)
    )
    cases["accumulated"] = (APPS, MulticoreConfig())
    return cases


@lru_cache(maxsize=None)
def _trace(app: str) -> MemoryTrace:
    return memory_trace(profile(app), TRACE_REFERENCES, seed=TRACE_SEED)


def measure(apps: tuple[str, ...], config: MulticoreConfig) -> list[dict]:
    """The statistics after each run of ``apps`` on one simulator."""
    sim = MulticoreSimulator(config)
    return [asdict(sim.run(_trace(app))) for app in apps]


def _load() -> dict[str, list[dict]]:
    with open(GOLDEN_PATH) as fh:
        return {entry["name"]: entry["runs"] for entry in json.load(fh)}


CASES = golden_cases()


def test_cases_match_the_recorded_names():
    assert list(_load()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_simulator_reproduces_the_golden(name):
    apps, config = CASES[name]
    assert measure(apps, config) == _load()[name]


if __name__ == "__main__":
    records = [
        {"name": name, "runs": measure(apps, config)}
        for name, (apps, config) in CASES.items()
    ]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
