import json
import shutil
import subprocess
import sys
from pathlib import Path

import measure

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["figures", "serve", "faults"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode == 2
    assert got.stdout == ""
    assert "src/repro/__init__.py is missing" in got.stderr
