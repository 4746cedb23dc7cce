"""Ablation: should DESC be applied to the address wires?

Section 3.2.1 says no: "the physical wire activity caused by the
address bits in conventional binary encoding is relatively low, which
makes it inefficient to apply DESC to the address wires."  This
ablation measures real L2 address streams under binary, Gray, T0, and
DESC, and puts the numbers behind the decision: the address bus is a
small slice of H-tree energy, and time-encoding it would add its
value-dependent latency to *every* access, including misses.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.encoding.address import GrayCodeEncoder, T0Encoder, addresses_to_bits
from repro.encoding.binary import BinaryEncoder
from repro.sim.config import baseline_scheme
from repro.sim.system import transfer_stats
from repro.workloads import PARALLEL_SUITE, memory_trace

_ADDR_BITS = 32
_REFS = 6000


def test_ablation_address_bus_encoding(run_once):
    def sweep():
        rows = {}
        desc_latency = []
        for app in PARALLEL_SUITE[:8]:
            trace = memory_trace(app, _REFS, seed=2)
            addrs = trace.addresses % (1 << _ADDR_BITS)
            bits = addresses_to_bits(addrs, _ADDR_BITS)
            binary = BinaryEncoder(_ADDR_BITS, _ADDR_BITS).stream_cost(bits)
            gray = GrayCodeEncoder(_ADDR_BITS).stream_cost(bits)
            t0 = T0Encoder(_ADDR_BITS, stride=64).stream_cost(bits)
            # DESC on the address: 8 four-bit chunks on 8 wires.
            layout = ChunkLayout(block_bits=_ADDR_BITS, chunk_bits=4, num_wires=8)
            chunks = (bits.astype(np.int64).reshape(-1, 8, 4)
                      @ (1 << np.arange(4, dtype=np.int64)))
            desc = DescCostModel(layout, "zero").stream_cost(chunks)
            rows[app.name] = {
                "binary": binary.total().total_flips / _REFS,
                "gray": gray.total().total_flips / _REFS,
                "t0": t0.total().total_flips / _REFS,
                "desc-zs": desc.total().total_flips / _REFS,
            }
            desc_latency.append(float(desc.delivery_latency.mean()))
        # Address share of total H-tree flips under the paper's system.
        data_flips = np.mean([
            transfer_stats(baseline_scheme("binary"), app, 2000, 1).total_flips
            for app in PARALLEL_SUITE[:8]
        ])
        return rows, float(np.mean(desc_latency)), float(data_flips)

    rows, desc_latency, data_flips = run_once(sweep)
    print("\n=== Ablation: encodings on the L2 address bus (flips/access) ===")
    print(f"  {'app':16s} {'binary':>8s} {'gray':>8s} {'t0':>8s} {'desc-zs':>9s}")
    for app, row in rows.items():
        print(f"  {app:16s} {row['binary']:8.2f} {row['gray']:8.2f} "
              f"{row['t0']:8.2f} {row['desc-zs']:9.2f}")
    binary_mean = np.mean([r["binary"] for r in rows.values()])
    desc_mean = np.mean([r["desc-zs"] for r in rows.values()])
    share = binary_mean / (binary_mean + data_flips)
    print(f"  binary address activity: {binary_mean:.1f} flips/access = "
          f"{binary_mean / _ADDR_BITS:.2f}/wire — 'relatively low' (§3.2.1)")
    print(f"  address share of H-tree flips: {share:.1%}")
    print(f"  DESC would add ~{desc_latency:.1f} cycles of address latency "
          f"to EVERY access (hits and misses)")

    # The paper's rationale, quantified:
    # (1) binary address activity is well under half a flip per wire;
    assert binary_mean / _ADDR_BITS < 0.5
    # (2) the address bus is a small slice of the H-tree traffic;
    assert share < 0.15
    # (3) DESC on addresses actually COSTS flips — address chunks are
    # mostly small non-zero values, and each pays its one mandatory
    # transition...
    assert desc_mean > 0.9 * binary_mean
    # ...while its added latency would sit on every access's critical path.
    assert desc_latency > 3.0
