"""Regenerates Figure 12: distribution of transferred 4-bit chunk values."""

from __future__ import annotations

from repro.experiments import fig12_chunk_values


def test_fig12_chunk_values(run_once):
    result = run_once(fig12_chunk_values.run, 4000)
    hist = result["value_histogram"]
    print("\n=== Figure 12: chunk-value distribution ===")
    for value, freq in enumerate(hist):
        bar = "#" * int(freq * 200)
        print(f"  {value:2d}: {freq:.4f} {bar}")
    print(f"  zero fraction: {result['zero_fraction']:.3f} "
          f"(paper {result['paper_zero_fraction']})")
    assert abs(result["zero_fraction"] - 0.31) < 0.04
