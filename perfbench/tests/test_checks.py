import copy
import json
from pathlib import Path

import checks
import loadgen
import traffic

REPO = Path(__file__).resolve().parents[2]


def test_figures_checker_rejects_one_changed_float():
    expected = json.loads((REPO / "results" / "figures.json").read_text())
    text = json.dumps(expected)
    assert checks.check_figures(text, expected) == 0
    first = next(iter(expected["fig01"]["l2_fraction"]))
    changed = copy.deepcopy(expected)
    changed["fig01"]["l2_fraction"][first] += 1e-15
    assert checks.check_figures(json.dumps(changed), expected) == 1
    assert checks.check_figures("{truncated", expected) == len(expected)
    assert checks.check_figures(None, expected) == len(expected)


def test_faults_checker_rejects_a_perturbed_row():
    expected = json.loads(checks.EXPECTED_FAULTS.read_text())
    assert checks.check_faults(json.dumps(expected), 0) == 0
    changed = copy.deepcopy(expected)
    changed["rows"][5]["chunk_error_rate"] *= 1.0000001
    assert checks.check_faults(json.dumps(changed), 0) == 1


def test_faults_checker_holds_other_seeds_to_the_row_invariants():
    other = json.loads(checks.EXPECTED_FAULTS.read_text())
    other["seed"] = 4
    assert checks.check_faults(json.dumps(other), 4) == 0
    other["rows"][2]["silent"] += 1  # outcomes no longer sum to delivered
    assert checks.check_faults(json.dumps(other), 4) == 1
    other["rows"][3] = {"drop_rate": 0.0, "failed": "timeout"}
    assert checks.check_faults(json.dumps(other), 4) == 2
    assert checks.check_faults(json.dumps(other), 5) == checks.FAULT_POINTS


def test_response_checker_rejects_one_flipped_byte():
    item = traffic.Item("new", 3, 0)
    body = b'{"app":"Art","cycles":12345}'
    expected = {3: body}
    good = loadgen.Sample(item, 0, 0.0, 0.001, 200, body)
    assert checks.check_responses([good], expected) == 0
    flipped = bytearray(body)
    flipped[10] ^= 0x01
    bad = loadgen.Sample(item, 0, 0.0, 0.001, 200, bytes(flipped))
    refused = loadgen.Sample(item, 1, 0.0, 0.001, 429, body)
    assert checks.check_responses([good, bad, refused], expected) == 2
    assert not bad.ok and bad.latency_ms == float("inf")
    assert refused.latency_ms == float("inf")
