"""Seeded `/simulate` traffic for the ``serve`` workload.

The design space is the 16 parallel applications x the 8 Figure 16
schemes x a system-geometry grid, at one fixed sample size and
workload seed.  Each of the two connections gets its own request list:

* ``repeat`` -- a point this connection has already had answered (a
  store hit, the read path);
* ``new`` -- a point no request has named yet (an engine run, the
  write path);
* ``dup`` -- a new point that both connections send at the same list
  index; the load generator releases the pair together, so one of them
  finds the other in flight and the coalescer has work to do.

A repeat names only points its own connection has seen answered: the
loop is closed, so they are answered by the time the repeat is sent.
The inputs are fixed here rather than read from the program, so a
change to the program's defaults cannot change the traffic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

__all__ = ["APPS", "SCHEMES", "GEOMETRY", "Item", "Traffic", "generate", "payload"]

APPS = (
    "Art", "Barnes", "CG", "Cholesky", "Equake", "FFT", "FT", "Linear",
    "LU", "MG", "Ocean", "Radix", "RayTrace", "Swim", "Water-NSquared",
    "Water-Spacial",
)

#: Figure 16's schemes, as the non-default fields of their payloads.
SCHEMES = (
    {"name": "binary"},
    {"name": "zero-compression"},
    {"name": "bus-invert"},
    {"name": "bus-invert+zero-skip"},
    {"name": "bus-invert+encoded-zero-skip"},
    {"name": "desc", "data_wires": 128},
    {"name": "desc+zero-skip", "data_wires": 128},
    {"name": "desc+last-value-skip", "data_wires": 128},
)

#: System geometry axes; every combination is a valid configuration.
GEOMETRY = (
    ("num_banks", (4, 8, 16, 32)),
    ("l2_size_bytes", (4 << 20, 8 << 20, 16 << 20)),
    ("l2_associativity", (8, 16)),
    ("mats_per_subbank", (2, 4, 8)),
)

#: The sample size of ``repro explore --preset frontier``
#: (``PRESETS["frontier"]`` in ``repro/explore/spec.py``) and of the
#: ``repro.sim.sweeps`` usage example.
SAMPLE_BLOCKS = 2000
WORKLOAD_SEED = 1
#: Closed-loop connections, one per CPU of the 2-CPU reference host.
CONNECTIONS = 2

#: Target shares of all requests.  ``dup`` requests come in pairs.
DUP_SHARE = 0.05
REPEAT_SHARE = 0.50


def _space_size() -> int:
    size = len(APPS) * len(SCHEMES)
    for _, values in GEOMETRY:
        size *= len(values)
    return size


SPACE_SIZE = _space_size()


def payload(point: int) -> dict:
    """The request body of design point ``point`` (0 <= point < SPACE_SIZE)."""
    system = {"sample_blocks": SAMPLE_BLOCKS, "seed": WORKLOAD_SEED}
    for name, values in reversed(GEOMETRY):
        point, pick = divmod(point, len(values))
        system[name] = values[pick]
    point, scheme = divmod(point, len(SCHEMES))
    app = point
    return {"app": APPS[app], "scheme": dict(SCHEMES[scheme]), "system": system}


@dataclass(frozen=True)
class Item:
    """One request: its kind, its design point and its list index."""

    kind: str  # "repeat" | "new" | "dup"
    point: int
    index: int

    @property
    def klass(self) -> str:
        """``hit`` for an already-answered point, else ``miss``."""
        return "hit" if self.kind == "repeat" else "miss"


@dataclass(frozen=True)
class Traffic:
    """Two request lists, one per connection, and their request bodies."""

    connections: tuple[tuple[Item, ...], ...]
    bodies: dict[int, bytes]

    def items(self):
        for items in self.connections:
            yield from items


def generate(seed: int, per_connection: int) -> Traffic:
    """The request lists for ``seed``; the same seed gives the same lists."""
    total = per_connection * CONNECTIONS
    if total > SPACE_SIZE:
        raise ValueError(f"{total} requests exceed the {SPACE_SIZE}-point space")
    rng = random.Random(seed)
    fresh = iter(rng.sample(range(SPACE_SIZE), total))
    repeat_given_single = REPEAT_SHARE / (1.0 - DUP_SHARE)
    lists: list[list[Item]] = [[] for _ in range(CONNECTIONS)]
    seen: list[list[int]] = [[] for _ in range(CONNECTIONS)]
    for index in range(per_connection):
        if index and rng.random() < DUP_SHARE:
            point = next(fresh)
            for conn in range(CONNECTIONS):
                lists[conn].append(Item("dup", point, index))
                seen[conn].append(point)
            continue
        for conn in range(CONNECTIONS):
            if seen[conn] and rng.random() < repeat_given_single:
                lists[conn].append(Item("repeat", rng.choice(seen[conn]), index))
            else:
                point = next(fresh)
                lists[conn].append(Item("new", point, index))
                seen[conn].append(point)
    bodies = {
        item.point: json.dumps(
            payload(item.point), sort_keys=True, separators=(",", ":")
        ).encode()
        for items in lists
        for item in items
    }
    return Traffic(tuple(tuple(items) for items in lists), bodies)
