"""Regenerates Figure 15: baseline energy vs segment size."""

from __future__ import annotations

from conftest import BENCH_SYSTEM

from repro.experiments import fig15_segment_size


def test_fig15_segment_size(run_once):
    result = run_once(fig15_segment_size.run, BENCH_SYSTEM)
    table = result["energy_by_segment"]
    print("\n=== Figure 15: L2 energy vs segment size (norm. to binary) ===")
    for scheme, by_bits in table.items():
        row = "  ".join(f"{bits:2d}b={ratio:.3f}" for bits, ratio in by_bits.items())
        star = result["best_segment_bits"][scheme]
        print(f"  {scheme:34s} {row}  best={star}b")
    # Every baseline helps at its best configuration.
    for scheme, by_bits in table.items():
        assert min(by_bits.values()) < 1.0, scheme
    # The registry defaults must match what this harness derives.
    from repro.encoding.registry import BEST_SEGMENT_BITS
    for scheme, best in result["best_segment_bits"].items():
        assert BEST_SEGMENT_BITS[scheme] == best, scheme
    # DZC is nearly insensitive to segment size; the invert-based
    # schemes degrade monotonically beyond 8-bit segments (the extra
    # capping granularity no longer pays for the invert-line traffic).
    dzc = result["energy_by_segment"]["zero-compression"]
    assert max(dzc.values()) - min(dzc.values()) < 0.05
    bic = result["energy_by_segment"]["bus-invert"]
    assert bic[16] < bic[32] < bic[64]
