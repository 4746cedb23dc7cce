import math

import pytest

import measure
import spans


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert spans.percentile(values, 0.5) == 3.0
    assert spans.percentile(values, 0.9) == pytest.approx(4.6)
    assert spans.percentile(values, 0.0) == 1.0
    assert spans.percentile([7.0], 0.99) == 7.0
    assert math.isnan(spans.percentile([], 0.5))


def test_failed_operations_count_as_infinite_latency():
    values = [1.0] * 8 + [math.inf] * 2
    assert spans.percentile(values, 0.5) == 1.0
    assert spans.percentile(values, 0.9) == math.inf
    assert spans.percentile([1.0, 2.0, math.inf], 0.25) == 1.5


# (name, start, end, parent, rid)
NESTED = [
    ["outer", 0.0, 10.0, None, None],
    ["a", 1.0, 4.0, 0, None],
    ["b", 2.0, 3.0, 1, None],
    ["a", 6.0, 8.0, 0, None],
]


def test_self_time_subtracts_the_children_cover():
    assert spans.self_times(NESTED) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_merges_overlapping_children():
    overlapping = [
        ["p", 0.0, 10.0, None, None],
        ["c", 1.0, 5.0, 0, None],
        ["c", 3.0, 7.0, 0, None],
    ]
    assert spans.self_times(overlapping)[0] == 4.0


def test_attribution_of_nested_spans_is_their_self_time_plus_a_remainder():
    totals, rest = spans.attribute(NESTED, -2.0, 11.0)
    assert totals == {"outer": 5.0, "a": 4.0, "b": 1.0}
    assert rest == 3.0
    assert sum(totals.values()) + rest == 13.0


def test_attribution_clips_to_the_window():
    totals, rest = spans.attribute(NESTED, 2.5, 7.0)
    assert totals == {"outer": 2.0, "a": 2.0, "b": 0.5}
    assert rest == 0.0


def test_concurrent_spans_share_time_and_waiting_spans_yield():
    concurrent = [
        ["http", 0.0, 4.0, None, "r1"],
        ["engine", 1.0, 3.0, None, None],
        ["parse", 0.0, 1.0, 0, "r1"],
    ]
    totals, rest = spans.attribute(concurrent, 0.0, 4.0)
    assert totals == {"parse": 1.0, "http": 2.0, "engine": 1.0}
    totals, rest = spans.attribute(concurrent, 0.0, 4.0, frozenset({"http"}))
    assert totals == {"parse": 1.0, "engine": 2.0, "http": 1.0}
    assert rest == 0.0


def test_layer_metrics_reconcile_with_the_traced_wall_time():
    trace = {
        "spans": [
            ["cli.import_s", 0.0, 0.2, None, None],
            ["experiments.fig28_s", 0.5, 3.0, None, None],
            ["encoding.transfer_s.secded", 0.6, 2.9, 1, None],
            ["ecc.encode_s", 0.7, 2.5, 2, None],
            ["kernels.native_s", 2.5, 2.6, 2, None],
            ["kernels.native_load_s", 2.5, 2.51, 4, None],
        ],
        "counters": {"sim.store_hits": 3, "sim.store_misses": 1},
    }
    out = measure.layer_metrics(trace, 0.0, 3.5)
    assert set(out) == set(measure.PER_LAYER)
    layers = sum(out[name] for name in measure.SELF_TIMES)
    assert layers + out["unattributed_s"] == pytest.approx(out["trace.wall_s"]) == 3.5
    assert out["unattributed_s"] == pytest.approx(0.8)
    assert out["experiments.fig28_s"] == pytest.approx(2.5)  # the whole run()
    assert out["experiments.self_s"] == pytest.approx(0.2)
    assert out["ecc.encode_s"] == pytest.approx(1.8)
    assert out["encoding.transfer_s"] == out["encoding.transfer_s.secded"] == pytest.approx(0.4)
    assert out["kernels.native_s"] == pytest.approx(0.09)
    assert out["encoding.transfer_calls"] == 1
    assert out["sim.store_hit_ratio"] == 0.75
