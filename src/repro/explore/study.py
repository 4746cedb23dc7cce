"""The adaptive study driver and its crash-safe journal.

A study spends a fixed budget of design-point evaluations in two
movements:

1. **Coarse pass** — a seeded scrambled-Halton sweep of the unit cube
   (:class:`~repro.explore.sampling.HaltonSampler`), covering the space
   evenly with ``spec.init_samples`` unique points;
2. **Refinement rounds** — around every frontier point, bisection
   candidates (:func:`~repro.explore.sampling.bisect_neighbours`) with
   the step width halving each round, so the search zooms in on the
   Pareto frontier geometrically.  A round that discovers nothing new
   tops up from the Halton sequence instead of stalling.

Determinism is the design center: every candidate is a pure function of
``(spec, seed, frontier state)``, the frontier itself is
order-independent at epsilon-ties, and evaluated points are keyed by
the canonical JSON of their *canonical* parameters (alias axis values
collapse, see :func:`~repro.explore.objectives.canonical_params`).
A study is therefore **byte-reproducible**: same spec, same seed, same
frontier bytes — on any backend.

Crash safety comes from the journal's own protocol:

* every evaluation appends one fsynced JSONL record to
  ``journal.jsonl`` (append-only; an undecodable torn tail from a
  mid-write crash is tolerated and ignored);
* the frontier snapshot ``frontier.json`` is replaced atomically
  (write ``.tmp``, fsync, ``os.replace``, fsync the directory).

**Resume is deterministic replay**: :func:`resume_study` re-runs the
driver from the journaled spec, and the journal acts as an evaluation
cache — already-evaluated points return instantly, the search re-walks
the identical trajectory, and the run continues live exactly where the
crash cut it off.  The resumed frontier is byte-identical to an
uninterrupted run's (the self-check's crash-consistency assertion).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.explore.backends import EvaluationError, SubmissionBackend
from repro.explore.frontier import FrontierPoint, ParetoFrontier, point_key
from repro.explore.objectives import (
    canonical_params,
    objectives_from_payloads,
    resolve_design,
)
from repro.explore.sampling import HaltonSampler, bisect_neighbours
from repro.explore.spec import StudySpec
from repro.service import codec

__all__ = [
    "StudyJournal",
    "StudyResult",
    "random_frontier",
    "resume_study",
    "run_study",
]

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Cap on Halton draws per unique point wanted, against degenerate
#: specs whose whole cube collapses onto a handful of canonical points.
_DRAW_FACTOR = 64


@dataclass
class StudyResult:
    """Everything one finished (or resumed) study produced.

    Attributes:
        spec: The specification the study ran.
        frontier: The final epsilon-Pareto archive.
        evaluations: One record per unique design point, in evaluation
            order (the journal's eval records, including failures).
        spent: Unique design points charged against the budget.
        reused: How many of those came from the journal cache (0 for a
            fresh run; >0 after a resume).
        rounds: Refinement rounds actually executed.
        out_dir: Journal directory, when the study was journaled.
    """

    spec: StudySpec
    frontier: ParetoFrontier
    evaluations: list[dict] = field(default_factory=list)
    spent: int = 0
    reused: int = 0
    rounds: int = 0
    out_dir: Path | None = None

    @property
    def failed_points(self) -> list[dict]:
        """The evaluation records that failed (config + reason)."""
        return [record for record in self.evaluations if record["failed"]]

    def frontier_bytes(self) -> bytes:
        """Canonical frontier bytes — the byte-identity contract."""
        return self.frontier.snapshot_bytes()

    def to_payload(self) -> dict:
        """The JSON shape of the result (reports, ``--json`` output)."""
        return {
            "spec": self.spec.to_payload(),
            "frontier": self.frontier.snapshot(),
            "spent": self.spent,
            "reused": self.reused,
            "rounds": self.rounds,
            "evaluations": len(self.evaluations),
            "failed": len(self.failed_points),
        }


class StudyJournal:
    """Append-only evaluation journal + atomic frontier snapshots.

    Layout inside ``directory``::

        journal.jsonl    # meta line, then one record per evaluation
        frontier.json    # latest frontier snapshot (atomic replace)

    Records are canonical JSON lines; each append is flushed and
    fsynced before the evaluation is considered durable, so a crash
    can lose at most the in-flight record — and a torn tail from that
    crash is detected and ignored on reopen.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / "journal.jsonl"
        self.frontier_path = self.directory / "frontier.json"
        self._handle: Any = None

    # -- reading -------------------------------------------------------

    def load(self) -> tuple[StudySpec | None, list[dict]]:
        """Read ``(spec, eval_records)`` back from the journal.

        Returns ``(None, [])`` for a missing or empty journal.  A torn
        final line (mid-write crash) is ignored; a torn line anywhere
        else is corruption and raises.
        """
        if not self.journal_path.exists():
            return None, []
        raw = self.journal_path.read_bytes()
        if not raw:
            return None, []
        lines = raw.split(b"\n")
        # A well-formed journal ends with a newline, leaving one empty
        # trailing chunk; anything else is a torn tail to discard.
        if lines and lines[-1] == b"":
            lines.pop()
        spec: StudySpec | None = None
        records: list[dict] = []
        for index, line in enumerate(lines):
            try:
                payload = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    break  # torn tail: the crashed append, ignore
                raise ValueError(
                    f"{self.journal_path}: corrupt record at line {index + 1}"
                ) from None
            kind = payload.get("type")
            if kind == "meta":
                if payload.get("version") != JOURNAL_VERSION:
                    raise ValueError(
                        f"{self.journal_path}: journal version "
                        f"{payload.get('version')!r} != {JOURNAL_VERSION}"
                    )
                spec = StudySpec.from_payload(payload["spec"])
            elif kind == "eval":
                records.append(payload)
            else:
                raise ValueError(
                    f"{self.journal_path}: unknown record type {kind!r} "
                    f"at line {index + 1}"
                )
        return spec, records

    # -- writing -------------------------------------------------------

    def _append(self, payload: Mapping[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.journal_path, "ab")
        self._handle.write(codec.encode_json(dict(payload)) + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_meta(self, spec: StudySpec) -> None:
        """Append the meta record (first line of a fresh journal)."""
        self._append(
            {"type": "meta", "version": JOURNAL_VERSION,
             "spec": spec.to_payload()}
        )

    def write_eval(self, record: Mapping[str, Any]) -> None:
        """Append one evaluation record durably."""
        self._append({"type": "eval", **record})

    def write_frontier(self, frontier: ParetoFrontier) -> None:
        """Replace the frontier snapshot atomically.

        Crash-consistent: write a ``.tmp`` sibling, fsync it,
        ``os.replace`` onto the final name, fsync the directory.  A
        crash leaves the old snapshot or the new — never a torn one.
        """
        tmp = self.frontier_path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "wb") as handle:
            handle.write(frontier.snapshot_bytes() + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.frontier_path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _Evaluator:
    """Budgeted, deduplicating, journal-backed evaluation of coords."""

    def __init__(
        self,
        spec: StudySpec,
        backend: SubmissionBackend,
        budget: int,
        cache: Mapping[str, Mapping[str, Any]],
        journal: StudyJournal | None,
        frontier: ParetoFrontier,
    ) -> None:
        self.spec = spec
        self.backend = backend
        self.budget = budget
        self.cache = cache
        self.journal = journal
        self.frontier = frontier
        self.evaluations: list[dict] = []
        self.coords_by_key: dict[str, tuple[float, ...]] = {}
        self.spent = 0
        self.reused = 0

    @property
    def exhausted(self) -> bool:
        """Whether the evaluation budget is fully spent."""
        return self.spent >= self.budget

    def offer(self, coordinates: Sequence[float]) -> bool:
        """Evaluate the design point at ``coordinates`` if it is new.

        Returns True when a *new unique* point was charged against the
        budget (fresh or replayed from the journal cache); False when
        the coordinates alias an already-evaluated point.
        """
        coordinates = tuple(float(u) for u in coordinates)
        params = canonical_params(self.spec.resolve(coordinates))
        key = point_key(params)
        if key in self.coords_by_key:
            return False
        self.coords_by_key[key] = coordinates
        cached = self.cache.get(key)
        if cached is not None:
            record = dict(cached)
            self.reused += 1
        else:
            record = self._evaluate(key, params, coordinates)
            if self.journal is not None:
                self.journal.write_eval(record)
        self.spent += 1
        self.evaluations.append(record)
        if not record["failed"]:
            objectives = [
                record["objectives"][name] for name in self.spec.objectives
            ]
            self.frontier.add(record["params"], objectives, key=key)
        return True

    def _evaluate(
        self, key: str, params: dict, coordinates: tuple[float, ...]
    ) -> dict:
        record: dict[str, Any] = {
            "key": key,
            "params": params,
            "coordinates": list(coordinates),
            "objectives": None,
            "metrics": None,
            "failed": False,
            "reason": None,
        }
        try:
            design = resolve_design(params)
            jobs = design.jobs(self.spec.apps, self.spec.sample_blocks)
            payloads = self.backend.submit(jobs)
            objectives, metrics = objectives_from_payloads(
                design, payloads, self.spec.objectives
            )
        except (EvaluationError, ValueError, TypeError) as exc:
            record["failed"] = True
            record["reason"] = f"{type(exc).__name__}: {exc}"
            return record
        record["objectives"] = objectives
        record["metrics"] = metrics
        return record


def run_study(
    spec: StudySpec,
    backend: SubmissionBackend,
    out_dir: str | Path | None = None,
    *,
    budget: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> StudyResult:
    """Run (or continue) one adaptive exploration study.

    Args:
        spec: What to explore (axes, apps, objectives, search knobs).
        backend: How design points are evaluated
            (:class:`~repro.explore.backends.LocalBackend` or
            :class:`~repro.explore.backends.ServiceBackend`).
        out_dir: Journal directory.  ``None`` runs un-journaled (tests,
            throwaway studies); an existing journal there is **replayed
            as an evaluation cache** before live evaluation continues,
            which is exactly how resume works.
        budget: Override ``spec.budget`` (the CLI's ``--budget``).
        progress: Optional line sink for human progress output.

    Returns:
        The :class:`StudyResult`, frontier snapshot already durable
        when journaled.
    """
    total = spec.budget if budget is None else budget
    if total < 1:
        raise ValueError(f"budget must be >= 1, got {total}")
    say = progress if progress is not None else lambda line: None
    journal: StudyJournal | None = None
    cache: dict[str, dict] = {}
    if out_dir is not None:
        journal = StudyJournal(out_dir)
        journaled_spec, records = journal.load()
        if journaled_spec is not None and journaled_spec != spec:
            journal.close()
            raise ValueError(
                f"journal at {journal.directory} was written by a "
                f"different study spec ({journaled_spec.name!r}); refusing "
                "to mix studies in one journal"
            )
        cache = {record["key"]: record for record in records}
        if journaled_spec is None:
            journal.write_meta(spec)
    frontier = ParetoFrontier(spec.epsilon)
    evaluator = _Evaluator(spec, backend, total, cache, journal, frontier)
    try:
        sampler = HaltonSampler(spec.dimensions, spec.seed)
        init_target = min(spec.init_samples, total)
        _drain_sampler(evaluator, sampler, init_target)
        say(
            f"coarse pass: {evaluator.spent} point(s), "
            f"frontier size {len(frontier)}"
        )
        if journal is not None:
            journal.write_frontier(frontier)
        rounds = 0
        for round_index in range(spec.max_rounds):
            if evaluator.exhausted:
                break
            width = 0.5 ** (round_index + 1)
            fresh = _refinement_round(evaluator, frontier, width)
            if not evaluator.exhausted and fresh == 0:
                # The bisection neighbourhood is exhausted around this
                # frontier; spend the remainder widening coverage.
                fresh = _drain_sampler(
                    evaluator, sampler, evaluator.spent + 1
                )
            rounds = round_index + 1
            say(
                f"round {rounds}: width {width:g}, {fresh} new point(s), "
                f"spent {evaluator.spent}/{total}, "
                f"frontier size {len(frontier)}"
            )
            if journal is not None:
                journal.write_frontier(frontier)
            if fresh == 0:
                break
        # Any leftover budget (tiny frontiers, early-dry rounds) goes to
        # coverage so equal budgets mean equal work.
        if not evaluator.exhausted:
            _drain_sampler(evaluator, sampler, total)
            if journal is not None:
                journal.write_frontier(frontier)
        if journal is not None:
            journal.write_frontier(frontier)
    finally:
        if journal is not None:
            journal.close()
    return StudyResult(
        spec=spec,
        frontier=frontier,
        evaluations=evaluator.evaluations,
        spent=evaluator.spent,
        reused=evaluator.reused,
        rounds=rounds,
        out_dir=journal.directory if journal is not None else None,
    )


def resume_study(
    out_dir: str | Path,
    backend: SubmissionBackend,
    *,
    budget: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> StudyResult:
    """Resume an interrupted study from its journal directory.

    The spec is read back from the journal's meta record, and
    :func:`run_study` replays the deterministic trajectory with the
    journal as an evaluation cache: finished points are free, the first
    unfinished point continues live.  The final frontier is
    byte-identical to an uninterrupted run's.
    """
    journal = StudyJournal(out_dir)
    spec, _ = journal.load()
    journal.close()
    if spec is None:
        raise ValueError(
            f"no journal to resume at {journal.directory} "
            "(missing or empty journal.jsonl)"
        )
    return run_study(
        spec, backend, out_dir, budget=budget, progress=progress
    )


def _drain_sampler(
    evaluator: _Evaluator, sampler: HaltonSampler, target: int
) -> int:
    """Draw Halton points until ``target`` total points are evaluated.

    Returns how many new unique points were charged.  Bounded by
    ``_DRAW_FACTOR`` draws per wanted point so a degenerate spec (all
    coordinates aliasing a few canonical points) terminates.
    """
    wanted = target - evaluator.spent
    if wanted <= 0:
        return 0
    fresh = 0
    draws_left = _DRAW_FACTOR * wanted
    while evaluator.spent < target and draws_left > 0:
        draws_left -= 1
        if evaluator.offer(sampler.draw()):
            fresh += 1
    return fresh


def _refinement_round(
    evaluator: _Evaluator, frontier: ParetoFrontier, width: float
) -> int:
    """One bisection round around the current frontier.

    Candidates come from the frontier in canonical order, each point
    yielding its ``2 * dimensions`` axis-bisection neighbours — a
    deterministic function of (frontier state, width), which is what
    makes replayed rounds identical.  The frontier snapshot is taken
    up front: points discovered mid-round refine in the *next* round.
    """
    fresh = 0
    anchors: list[FrontierPoint] = frontier.points()
    for anchor in anchors:
        center = evaluator.coords_by_key.get(anchor.key)
        if center is None:  # pragma: no cover - journal-only frontier
            continue
        for candidate in bisect_neighbours(center, width):
            if evaluator.exhausted:
                return fresh
            if evaluator.offer(candidate):
                fresh += 1
    return fresh


def random_frontier(
    spec: StudySpec,
    backend: SubmissionBackend,
    *,
    budget: int | None = None,
    seed_offset: int = 1,
) -> StudyResult:
    """An equal-budget *non-adaptive* baseline study.

    Pure seeded Monte-Carlo sampling of the cube — the strawman the
    adaptive driver must beat.  Used by the self-check's
    frontier-dominance assertion; exported for experiments.
    """
    import random as random_mod

    from repro.explore.sampling import stratified_point

    total = spec.budget if budget is None else budget
    frontier = ParetoFrontier(spec.epsilon)
    evaluator = _Evaluator(spec, backend, total, {}, None, frontier)
    rng = random_mod.Random(spec.seed + seed_offset * 7919)
    draws_left = _DRAW_FACTOR * total
    while not evaluator.exhausted and draws_left > 0:
        draws_left -= 1
        evaluator.offer(stratified_point(rng, spec.dimensions))
    return StudyResult(
        spec=spec,
        frontier=frontier,
        evaluations=evaluator.evaluations,
        spent=evaluator.spent,
        reused=0,
        rounds=0,
        out_dir=None,
    )
