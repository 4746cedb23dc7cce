"""Vectorized execution kernels for the hot paths (DESIGN.md §4).

Three layers:

* :mod:`repro.kernels.batched` — shared batched array primitives
  (popcount, history shifts, forward fills, level transitions, strobe
  parity, group ranking) that the encoders, the closed-form DESC model,
  and the workload generator build on.
* :mod:`repro.kernels.pipeline` — one-call-per-epoch pipeline kernels,
  each a native entry point with a byte-identical NumPy twin.
* :mod:`repro.kernels.native` — the loader of the compile-on-demand C
  library behind the pipeline kernels.
"""

from repro.kernels.batched import (
    forward_fill_take,
    group_rank,
    level_transitions,
    popcount,
    shifted_prev,
    strobe_flips,
)

__all__ = [
    "forward_fill_take",
    "group_rank",
    "level_transitions",
    "popcount",
    "shifted_prev",
    "strobe_flips",
]
