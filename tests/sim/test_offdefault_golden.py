"""Golden runs off the default transfer geometry: ECC and chunk widths.

``golden_runs.json`` pins the 8 default schemes, all on 4-bit DESC
chunks and without ECC.  ``golden_offdefault.json`` pins the transfer
paths those configurations never reach: the four Figure 28/29 SECDED
configurations, zero-skipped DESC on 1-, 2-, 8- and 16-bit chunks,
DESC with the Figure 9 layout at other segment/chunk pairings,
last-value DESC under (137, 128), the segmented baselines on a
(72, 64) bus, and the null-block directory on an ECC and a 2-bit
geometry.  Each case holds whole ``RunResult``s for Ocean, CG and
Radix at 1200 sample blocks, computed on a private result store.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/sim/test_offdefault_golden.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.fig28_ecc_time import ECC_CONFIGS
from repro.kernels import native, pipeline
from repro.sim.config import SchemeConfig, SystemConfig, desc_scheme
from repro.sim.engine import StagedEngine
from repro.sim.store import ResultStore

GOLDEN_PATH = Path(__file__).parent / "golden_offdefault.json"

APPS = ("Ocean", "CG", "Radix")
SAMPLE_BLOCKS = 1200

#: (chunk_bits, data_wires) of the zero-skipped DESC chunk-width cases.
CHUNK_GEOMETRIES = ((1, 128), (2, 64), (2, 256), (8, 32), (8, 64), (16, 32))


def golden_cases() -> dict[str, tuple[SchemeConfig, SystemConfig]]:
    """Case name → (scheme, system)."""
    system = SystemConfig(sample_blocks=SAMPLE_BLOCKS)
    null_system = system.with_(null_directory=True)
    cases = {
        f"fig28 {label}": (scheme, system) for label, scheme in ECC_CONFIGS
    }
    for chunk_bits, wires in CHUNK_GEOMETRIES:
        cases[f"zs c{chunk_bits}-w{wires}"] = (
            desc_scheme("zero", data_wires=wires, chunk_bits=chunk_bits),
            system,
        )
    cases["zs ecc S64-c8"] = (
        desc_scheme("zero", chunk_bits=8, ecc_segment_bits=64), system
    )
    cases["zs ecc S32-c2"] = (
        desc_scheme("zero", chunk_bits=2, ecc_segment_bits=32), system
    )
    cases["lv ecc S128"] = (
        desc_scheme("last-value", ecc_segment_bits=128), system
    )
    for name in ("bus-invert", "zero-compression"):
        cases[f"{name} ecc 64-64"] = (
            SchemeConfig(name=name, data_wires=64, ecc_segment_bits=64),
            system,
        )
    cases["null fig28 128-128 DESC"] = (
        desc_scheme("zero", data_wires=128, ecc_segment_bits=128),
        null_system,
    )
    cases["null zs c2-w64"] = (
        desc_scheme("zero", data_wires=64, chunk_bits=2), null_system
    )
    return cases


def _result_dict(result) -> dict:
    return {
        "app": result.app,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "hit_latency": result.hit_latency,
        "miss_latency": result.miss_latency,
        "bank_wait": result.bank_wait,
        "transfers": result.transfers,
        "transfer_stats": asdict(result.transfer_stats),
        "l2": asdict(result.l2),
        "processor": asdict(result.processor),
    }


def measure(scheme: SchemeConfig, system: SystemConfig) -> list[dict]:
    """Whole results per application, on a store no other run shares."""
    engine = StagedEngine(ResultStore())
    return [_result_dict(engine.run(app, scheme, system)) for app in APPS]


def _load() -> dict[str, dict]:
    with open(GOLDEN_PATH) as fh:
        return {entry["name"]: entry for entry in json.load(fh)}


CASES = golden_cases()


def test_cases_match_the_recorded_names():
    assert list(_load()) == list(CASES)


def test_recorded_configs_match_the_cases():
    golden = _load()
    for name, (scheme, system) in CASES.items():
        assert golden[name]["scheme_config"] == asdict(scheme), name
        assert golden[name]["null_directory"] == system.null_directory, name


@pytest.mark.parametrize("name", list(CASES))
def test_engine_reproduces_the_golden(name):
    scheme, system = CASES[name]
    assert measure(scheme, system) == _load()[name]["runs"]


@pytest.mark.skipif(
    not pipeline.pipeline_available(),
    reason="native pipeline unavailable on this machine",
)
def test_numpy_twins_reproduce_the_golden(monkeypatch):
    """The same cases with the native library off, in one process."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    native.reset_native_kernel_cache()
    try:
        golden = _load()
        mismatches = [
            name
            for name, (scheme, system) in CASES.items()
            if measure(scheme, system) != golden[name]["runs"]
        ]
    finally:
        monkeypatch.undo()
        native.reset_native_kernel_cache()
    assert mismatches == []


if __name__ == "__main__":
    records = [
        {
            "name": name,
            "scheme_config": asdict(scheme),
            "null_directory": system.null_directory,
            "runs": measure(scheme, system),
        }
        for name, (scheme, system) in CASES.items()
    ]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
