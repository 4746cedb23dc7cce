"""End-to-end self-check: ``repro explore --check``.

Runs a real (small) study three ways and asserts the subsystem's three
headline contracts:

* **crash consistency** — a study resumed from a truncated journal
  (half the evaluations kept, plus a deliberately torn trailing record,
  the on-disk shape a SIGKILL mid-append leaves) finishes with a
  frontier **byte-identical** to the uninterrupted run's, replaying
  exactly the journaled evaluations instead of recomputing them;
* **backend parity** — the same spec driven through a live service
  (:class:`~repro.explore.backends.ServiceBackend` riding coalescing
  and the result store) produces the same frontier bytes as the
  in-process :class:`~repro.explore.backends.LocalBackend`;
* **adaptivity pays** — at equal budget, the adaptive frontier covers
  (equals-or-dominates) at least as much of the seeded random
  baseline's frontier as vice versa, and strictly more budget goes to
  the frontier neighbourhood than blind sampling would spend.

Returns ``(exit_code, summary)`` like the other ``run_check``
entry points; the Markdown study report is emitted alongside.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.explore.backends import LocalBackend, ServiceBackend
from repro.explore.frontier import coverage
from repro.explore.report import study_report, summarize
from repro.explore.spec import StudySpec, preset_spec
from repro.explore.study import random_frontier, resume_study, run_study
from repro.service.check import ServerHarness
from repro.sim.engine import StagedEngine
from repro.sim.store import ResultStore

__all__ = ["run_check"]


def _truncated_copy(source: Path, target: Path, keep_evals: int) -> int:
    """Copy a journal keeping meta + the first ``keep_evals`` evals.

    Appends a torn partial record (no newline) after the cut — the
    exact on-disk state a SIGKILL mid-append leaves behind — so the
    resume path also proves its torn-tail tolerance.  Returns how many
    eval records were kept.
    """
    target.mkdir(parents=True, exist_ok=True)
    lines = (source / "journal.jsonl").read_bytes().splitlines(keepends=True)
    kept: list[bytes] = []
    evals = 0
    for line in lines:
        if b'"type":"eval"' in line:
            if evals >= keep_evals:
                break
            evals += 1
        kept.append(line)
    torn = b'{"type":"eval","key":"torn-by-sigkill'
    (target / "journal.jsonl").write_bytes(b"".join(kept) + torn)
    return evals


def run_check(
    spec: StudySpec | None = None,
    quick: bool = False,
    out_dir: str | None = None,
    report_out: str | None = None,
) -> tuple[int, dict]:
    """Run the explore self-check; returns ``(exit code, summary)``.

    Args:
        spec: Study to check with (default: the ``quick`` preset).
        quick: Shrink the per-application value sample further (CI's
            smoke shape) — halves ``sample_blocks`` and the budget.
        out_dir: Where journals and the report land (default: a
            temporary directory, cleaned up afterwards).
        report_out: Explicit path for the Markdown study report
            (default: ``<out_dir>/report.md``).
    """
    if spec is None:
        spec = preset_spec("quick")
    if quick:
        spec = spec.with_(
            sample_blocks=max(50, spec.sample_blocks // 2),
            budget=max(8, spec.budget // 2),
        )
    cleanup: tempfile.TemporaryDirectory | None = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-explore-check-")
        base = Path(cleanup.name)
    else:
        base = Path(out_dir)
        base.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        # One shared local engine: repeat studies hit its store, so the
        # three legs cost barely more simulations than one study.
        local = LocalBackend(engine=StagedEngine(ResultStore()))

        # Leg 1: the uninterrupted reference run, journaled.
        full = run_study(spec, local, base / "full")
        full_bytes = full.frontier.snapshot_bytes()
        if full.spent != spec.budget:
            problems.append(
                f"study spent {full.spent} of budget {spec.budget}"
            )
        if not len(full.frontier):
            problems.append("uninterrupted study produced an empty frontier")

        # Leg 2: crash consistency — resume from a truncated journal
        # with a torn tail and demand byte-identical convergence.
        kept = _truncated_copy(
            base / "full", base / "resume", max(1, full.spent // 2)
        )
        resumed = resume_study(base / "resume", local)
        resumed_bytes = resumed.frontier.snapshot_bytes()
        if resumed_bytes != full_bytes:
            problems.append(
                "resumed frontier differs from the uninterrupted run "
                f"({len(resumed.frontier)} vs {len(full.frontier)} points)"
            )
        if resumed.reused != kept:
            problems.append(
                f"resume replayed {resumed.reused} journaled point(s), "
                f"expected {kept}"
            )

        # Leg 3: backend parity — the same spec through a live service
        # (on its own private store) must land on the same frontier
        # bytes.
        with ServerHarness() as harness:
            remote = ServiceBackend(
                client=harness.client(timeout=300.0, max_attempts=10),
                max_in_flight=4,
            )
            try:
                served = run_study(spec, remote, base / "service")
            finally:
                remote.close()
        if served.frontier.snapshot_bytes() != full_bytes:
            problems.append(
                "service-backend frontier differs from the local backend's"
            )

        # Leg 4: adaptivity pays — equal-budget random baseline.
        baseline = random_frontier(spec, local, budget=full.spent)
        adaptive_cov = coverage(
            full.frontier.points(), baseline.frontier.points(), spec.epsilon
        )
        random_cov = coverage(
            baseline.frontier.points(), full.frontier.points(), spec.epsilon
        )
        if adaptive_cov < random_cov:
            problems.append(
                f"adaptive frontier covers {adaptive_cov:.1%} of the random "
                f"baseline but is covered {random_cov:.1%} — adaptivity "
                "did not pay"
            )

        report_path = (
            Path(report_out) if report_out else base / "report.md"
        )
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(study_report(full), encoding="utf-8")

        summary = {
            "spec": spec.name,
            "budget": full.spent,
            "frontier_points": len(full.frontier),
            "failed_points": len(full.failed_points),
            "resume_byte_identical": resumed_bytes == full_bytes,
            "resume_replayed": resumed.reused,
            "backend_parity": served.frontier.snapshot_bytes() == full_bytes,
            "adaptive_coverage": adaptive_cov,
            "random_coverage": random_cov,
            "report": str(report_path),
            "summary": summarize(full),
            "problems": problems,
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    print(json.dumps({k: v for k, v in summary.items() if k != "summary"},
                     indent=2), file=sys.stderr)
    return (1 if problems else 0), summary
