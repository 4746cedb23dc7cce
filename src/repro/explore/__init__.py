"""Autonomous Pareto design-space exploration over the simulator.

The DESC paper evaluates a handful of hand-picked configurations; this
package searches the *frontier*: where does the energy x latency x
resilience trade-off dominate as chunk size, wire count, resync
interval, fault rate, and engine geometry co-vary?

The pieces, bottom up:

* :mod:`repro.explore.spec` — :class:`StudySpec`: typed axes
  (categorical, integer, float; linear or log) that compile down to the
  :func:`repro.sim.sweeps.expand_grid` substrate but also support
  continuous sampling;
* :mod:`repro.explore.sampling` — seeded low-discrepancy (Halton) and
  stratified sampling in the unit cube, plus the bisection neighbours
  the refinement rounds use;
* :mod:`repro.explore.frontier` — epsilon-dominance Pareto archive with
  canonical (byte-stable) snapshots;
* :mod:`repro.explore.backends` — the submission protocol with two
  implementations: in-process :func:`repro.sim.engine.simulate_many`
  and a :class:`repro.service.client.ServiceClient` backend that rides
  the service (coalescing, result store) and honours its
  429/503/deadline semantics;
* :mod:`repro.explore.study` — the adaptive driver: coarse seeded pass,
  frontier maintenance, refinement rounds that bisect axes around
  frontier points, a fixed evaluation budget, and a crash-safe
  append-only journal so an interrupted study resumes byte-identically;
* :mod:`repro.explore.report` — per-study ``summarize``/JSON + Markdown
  report emission (via :mod:`repro.reporting`);
* :mod:`repro.explore.check` — the self-check harness behind
  ``repro explore --check``.

Everything is seeded: the same (spec, seed, budget) triple reproduces
the same journal and the same frontier, byte for byte, on any backend.
"""

from repro.explore.backends import (
    EvaluationError,
    LocalBackend,
    ServiceBackend,
    SubmissionBackend,
)
from repro.explore.frontier import FrontierPoint, ParetoFrontier
from repro.explore.report import study_report, summarize
from repro.explore.spec import Axis, StudySpec, load_spec, preset_spec
from repro.explore.study import StudyResult, resume_study, run_study

__all__ = [
    "Axis",
    "EvaluationError",
    "FrontierPoint",
    "LocalBackend",
    "ParetoFrontier",
    "ServiceBackend",
    "StudyResult",
    "StudySpec",
    "SubmissionBackend",
    "load_spec",
    "preset_spec",
    "resume_study",
    "run_study",
    "study_report",
    "summarize",
]
