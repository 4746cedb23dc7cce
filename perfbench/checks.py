"""Output checkers.  Each returns the number of wrong operations.

* ``figures``: every figure of the ``repro all --json`` output equals
  the committed ``results/figures.json`` entry exactly.
* ``faults``: at the default seed the whole ``repro faults --json``
  output equals the committed expected file; at any seed every row
  holds the row invariants.
* ``serve``: every response body is byte-equal to the canonical
  encoding of a direct ``StagedEngine`` run on a private store.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

__all__ = [
    "FAULT_POINTS",
    "FAULTS_BLOCKS",
    "check_faults",
    "check_figures",
    "check_responses",
    "reference_bodies",
]

EXPECTED_FAULTS = Path(__file__).resolve().parent / "expected" / "faults_seed0.json"

#: The full grid: 4 drop rates x 3 resync intervals x ECC on/off.
FAULT_POINTS = 24
FAULTS_BLOCKS = 64


def check_figures(text: str | None, expected: dict) -> int:
    """Wrong figures in one ``repro all --json`` output (all if unreadable)."""
    try:
        got = json.loads(text) if text is not None else None
    except json.JSONDecodeError:
        got = None
    if not isinstance(got, dict):
        return len(expected)
    wrong = sum(1 for name, value in expected.items() if got.get(name) != value)
    return wrong + sum(1 for name in got if name not in expected)


def _row_ok(row: dict) -> bool:
    if "failed" in row:
        return False
    outcomes = row["clean"] + row["corrected"] + row["detected"] + row["silent"]
    return (
        row["blocks_sent"] == FAULTS_BLOCKS
        and 0 <= row["blocks_lost"] <= row["blocks_sent"]
        and outcomes == row["blocks_sent"] - row["blocks_lost"]
        and (row["ecc"] or row["corrected"] == 0)
    )


def check_faults(text: str | None, seed: int) -> int:
    """Wrong campaign points in one ``repro faults --json`` output."""
    try:
        got = json.loads(text) if text is not None else None
        rows = got["rows"]
    except (json.JSONDecodeError, TypeError, KeyError):
        return FAULT_POINTS
    if len(rows) != FAULT_POINTS or got.get("failed") != 0 or got.get("seed") != seed:
        return FAULT_POINTS
    wrong = 0
    for row in rows:
        try:
            wrong += not _row_ok(row)
        except (KeyError, TypeError):
            wrong += 1
    if seed == 0:
        expected = json.loads(EXPECTED_FAULTS.read_text())
        if got != expected:
            differ = sum(1 for a, b in zip(expected["rows"], rows, strict=True) if a != b)
            wrong = max(wrong, differ or FAULT_POINTS)
    return wrong


def reference_bodies(env: dict[str, str], bodies: dict[int, bytes]) -> dict[int, bytes]:
    """The expected response body of every request body, by point.

    Runs each configuration through a direct ``StagedEngine`` on a
    private store and encodes it with the service codec, so the check
    shares the canonical form but not the serving path.  It runs in a
    child process: the benchmark itself never imports the program, so
    its memory stays below every child's, whose peak RSS as ``wait4``
    reads it includes the parent's at spawn.
    """
    request = json.dumps({point: body.decode() for point, body in bodies.items()})
    answer = subprocess.run(
        [sys.executable, __file__], input=request.encode(), env=env,
        capture_output=True, timeout=170, check=True,
    )
    return {int(point): body.encode() for point, body in json.loads(answer.stdout).items()}


def _reference_main() -> None:
    from repro.service import codec
    from repro.sim.engine import StagedEngine
    from repro.sim.store import ResultStore

    engine = StagedEngine(ResultStore())
    expected = {}
    for point, body in sorted(json.load(sys.stdin).items(), key=lambda kv: int(kv[0])):
        job = codec.job_from_payload(json.loads(body))
        result = engine.run(job.app, job.scheme, job.system)
        expected[point] = codec.encode_json(codec.result_to_payload(result)).decode()
    json.dump(expected, sys.stdout)


def check_responses(samples, expected: dict[int, bytes]) -> int:
    """Requests that failed, were refused or answered wrong bytes.

    A response with wrong bytes is marked failed (status -1), so it
    counts as infinite latency like any other failed request.
    """
    for sample in samples:
        if sample.ok and sample.body != expected[sample.item.point]:
            sample.status = -1
    return sum(1 for sample in samples if not sample.ok)


if __name__ == "__main__":
    _reference_main()
