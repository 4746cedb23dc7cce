from collections import Counter

import pytest

import traffic


def test_same_seed_same_traffic_other_seed_other_traffic():
    a = traffic.generate(7, 500)
    assert a == traffic.generate(7, 500)
    assert a.connections != traffic.generate(8, 500).connections


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_shares_hit_their_targets(seed):
    load = traffic.generate(seed, 2000)
    kinds = Counter(item.kind for item in load.items())
    total = sum(kinds.values())
    assert total == 4000
    assert abs(kinds["repeat"] / total - traffic.REPEAT_SHARE) < 0.03
    assert abs(kinds["dup"] / total - traffic.DUP_SHARE) < 0.015
    assert kinds["new"] / total > 0.4


def test_repeats_name_points_their_own_connection_had_answered():
    load = traffic.generate(3, 1000)
    for items in load.connections:
        seen = set()
        for item in items:
            if item.kind == "repeat":
                assert item.point in seen
                assert item.klass == "hit"
            else:
                assert item.klass == "miss"
            seen.add(item.point)


def test_new_points_are_new_and_dups_pair_up():
    load = traffic.generate(5, 1000)
    first, second = load.connections
    fresh = [item.point for item in load.items() if item.kind == "new"]
    dups = [(a.point, b.point) for a, b in zip(first, second, strict=True) if a.kind == "dup"]
    assert all(b.kind == "dup" for a, b in zip(first, second, strict=True) if a.kind == "dup")
    assert all(p == q for p, q in dups)
    named = fresh + [p for p, _ in dups]
    assert len(named) == len(set(named))


def test_payload_covers_the_space_without_collisions():
    payloads = {repr(traffic.payload(point)) for point in range(traffic.SPACE_SIZE)}
    assert len(payloads) == traffic.SPACE_SIZE == 16 * 8 * 4 * 3 * 2 * 3
    body = traffic.payload(0)
    assert body["app"] == "Art" and body["scheme"] == {"name": "binary"}
    assert body["system"]["sample_blocks"] == traffic.SAMPLE_BLOCKS


def test_too_many_requests_for_the_space_is_refused():
    with pytest.raises(ValueError):
        traffic.generate(0, traffic.SPACE_SIZE)
