"""Repo-specific static analysis: the invariants no generic linter knows.

The reproduction's credibility rests on properties that are easy to
break silently and that ``ruff``/``mypy`` cannot see:

* **Determinism** — the 24 golden configurations and the
  serial==parallel property tests only hold if every random draw flows
  from an explicit seed and no wall-clock value reaches a result
  (rule ``R001``).
* **Cost accounting** — every wire flip must be charged through
  :class:`~repro.core.protocol.TransferCost` exactly once, at a known
  charge site (rule ``R002``).
* **Engine-tier parity** — the reference event loop and the native
  kernel must stay call-compatible so the fallback never silently
  diverges, the pipeline kernels' native and NumPy twins must keep
  identical signatures, and every scheme must have a registered
  transfer model (rule ``R003``).
* **Float hygiene** — energy/cost comparisons must not use ``==``
  (rule ``R004``), and ordered outputs must not be fed from unordered
  iteration (rule ``R005``).
* **Service liveness** — request-path awaits must carry deadlines
  (rule ``R006``), and the serving layer's coroutines must be free of
  cross-``await`` state races, event-loop-blocking calls,
  fire-and-forget tasks, and swallowed cancellations (rule ``R007``).
* **FFI contracts** — the native kernels' exported C prototypes and
  their ctypes ``argtypes``/``restype`` bindings must agree on arity,
  pointer-ness, and integer width (rule ``R008``).

The package is a small AST-walking framework (:mod:`.framework`) with a
rule registry (:mod:`.rules`), a committed baseline so pre-existing
debt never blocks CI while *new* violations do (:mod:`.baseline`),
SARIF output (:mod:`.sarif`), and a CLI front-end wired into
``repro lint`` (:mod:`.cli`).

Suppressions: append ``# lint-ok: R001`` (comma-separate several ids)
to a line, or put ``# lint-ok-file: R001`` anywhere in a file to waive
the rule for the whole file.  Both are deliberate, reviewable markers —
prefer them to baselining.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.config import AnalysisConfig, find_repo_root, load_config
from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, SourceFile, collect_files, run_analysis
from repro.analysis.rules import default_rules

__all__ = [
    "AnalysisConfig",
    "Baseline",
    "Finding",
    "Rule",
    "SourceFile",
    "collect_files",
    "default_rules",
    "find_repo_root",
    "load_config",
    "run_analysis",
]
