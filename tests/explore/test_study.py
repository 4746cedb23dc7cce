"""The adaptive driver: journal, determinism, resume, crash-consistency.

The centerpiece is the SIGKILL test: a journaled study is killed
mid-round with no chance to clean up, then resumed — and the resumed
frontier must be byte-for-byte identical to an uninterrupted run's.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.explore.backends import LocalBackend
from repro.explore.spec import Axis, StudySpec
from repro.explore.study import (
    JOURNAL_VERSION,
    StudyJournal,
    random_frontier,
    resume_study,
    run_study,
)
from repro.service import codec


def small_spec(**overrides) -> StudySpec:
    base = dict(
        name="study-test",
        axes=(
            Axis("scheme", "categorical", values=("binary", "desc-zero")),
            Axis("num_banks", "categorical", values=(2, 4, 8)),
            Axis("resync_interval", "int", low=8, high=128, log=True),
            Axis("fault_rate", "float", low=1e-8, high=1e-5, log=True),
        ),
        apps=("Ocean",),
        budget=10,
        max_rounds=2,
        sample_blocks=100,
        seed=0,
    )
    base.update(overrides)
    return StudySpec(**base)


@pytest.fixture(scope="module")
def backend():
    return LocalBackend()


class TestStudyJournal:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        journal = StudyJournal(tmp_path / "j")
        journal.write_meta(spec)
        record = {"key": "k", "params": {"a": 1}, "failed": False}
        journal.write_eval(record)
        journal.close()
        loaded_spec, records = journal.load()
        assert loaded_spec == spec
        [loaded] = records
        assert loaded["key"] == "k"
        assert loaded["type"] == "eval"

    def test_missing_and_empty_journals(self, tmp_path):
        journal = StudyJournal(tmp_path / "j")
        assert journal.load() == (None, [])
        journal.journal_path.write_bytes(b"")
        assert journal.load() == (None, [])

    def test_torn_tail_is_ignored(self, tmp_path):
        spec = small_spec()
        journal = StudyJournal(tmp_path / "j")
        journal.write_meta(spec)
        journal.write_eval({"key": "k", "failed": False})
        journal.close()
        with open(journal.journal_path, "ab") as handle:
            handle.write(b'{"type":"eval","key":"torn')  # no newline
        loaded_spec, records = journal.load()
        assert loaded_spec == spec
        assert [r["key"] for r in records] == ["k"]

    def test_interior_corruption_raises(self, tmp_path):
        journal = StudyJournal(tmp_path / "j")
        journal.write_meta(small_spec())
        journal.close()
        raw = journal.journal_path.read_bytes()
        journal.journal_path.write_bytes(b"garbage\n" + raw)
        with pytest.raises(ValueError, match="corrupt record at line 1"):
            journal.load()

    def test_version_mismatch_raises(self, tmp_path):
        journal = StudyJournal(tmp_path / "j")
        journal.journal_path.write_text(
            '{"type": "meta", "version": %d, "spec": {}}\n'
            % (JOURNAL_VERSION + 1)
        )
        with pytest.raises(ValueError, match="journal version"):
            journal.load()

    def test_unknown_record_type_raises(self, tmp_path):
        journal = StudyJournal(tmp_path / "j")
        journal.journal_path.write_text('{"type": "wat"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            journal.load()

    def test_close_is_idempotent(self, tmp_path):
        journal = StudyJournal(tmp_path / "j")
        journal.write_meta(small_spec())
        journal.close()
        journal.close()


class TestRunStudy:
    def test_budget_spent_on_unique_points(self, backend):
        spec = small_spec()
        result = run_study(spec, backend)
        assert result.spent == spec.budget
        keys = [record["key"] for record in result.evaluations]
        assert len(keys) == len(set(keys))
        assert len(result.frontier) > 0
        assert result.reused == 0

    def test_byte_reproducible(self, backend):
        spec = small_spec()
        a = run_study(spec, backend)
        b = run_study(spec, backend)
        assert a.frontier_bytes() == b.frontier_bytes()
        assert codec.encode_json(a.to_payload()) == codec.encode_json(
            b.to_payload()
        )

    def test_seed_steers_the_search(self, backend):
        a = run_study(small_spec(seed=0), backend)
        b = run_study(small_spec(seed=1), backend)
        coords = lambda r: [rec["coordinates"] for rec in r.evaluations]
        assert coords(a) != coords(b)

    def test_budget_override_and_validation(self, backend):
        result = run_study(small_spec(), backend, budget=3)
        assert result.spent == 3
        with pytest.raises(ValueError, match="budget"):
            run_study(small_spec(), backend, budget=0)

    def test_journal_written_and_snapshot_durable(self, backend, tmp_path):
        spec = small_spec()
        result = run_study(spec, backend, tmp_path / "study")
        journal = StudyJournal(tmp_path / "study")
        loaded_spec, records = journal.load()
        assert loaded_spec == spec
        assert len(records) == result.spent
        snapshot = journal.frontier_path.read_bytes()
        assert snapshot == result.frontier_bytes() + b"\n"

    def test_spec_mismatch_guard(self, backend, tmp_path):
        run_study(small_spec(), backend, tmp_path / "study", budget=2)
        with pytest.raises(ValueError, match="refusing to mix studies"):
            run_study(small_spec(seed=9), backend, tmp_path / "study")

    def test_failed_points_recorded_not_fatal(self, backend):
        # An axis over an unknown SystemConfig field fails every design
        # point at job-build time; the study records and carries on.
        spec = small_spec(
            axes=(
                Axis("scheme", "categorical", values=("binary",)),
                Axis("warp_factor", "int", low=1, high=4),
            ),
            budget=3,
        )
        result = run_study(spec, LocalBackend())
        assert result.spent > 0
        assert len(result.failed_points) == result.spent
        assert "warp_factor" in result.failed_points[0]["reason"]
        assert len(result.frontier) == 0

    def test_progress_lines_emitted(self, backend):
        lines: list[str] = []
        run_study(small_spec(), backend, progress=lines.append)
        assert any(line.startswith("coarse pass") for line in lines)


class TestResume:
    def test_missing_journal_raises(self, backend, tmp_path):
        with pytest.raises(ValueError, match="no journal to resume"):
            resume_study(tmp_path / "nowhere", backend)

    def test_in_process_resume_is_byte_identical(self, backend, tmp_path):
        spec = small_spec()
        full = run_study(spec, backend, tmp_path / "full")
        # Keep the meta line and the first half of the eval records —
        # the state a crash between appends leaves behind.
        lines = (tmp_path / "full" / "journal.jsonl").read_bytes().splitlines(
            keepends=True
        )
        kept = full.spent // 2
        resume_dir = tmp_path / "resume"
        resume_dir.mkdir()
        (resume_dir / "journal.jsonl").write_bytes(
            b"".join(lines[: 1 + kept])
        )
        resumed = resume_study(resume_dir, backend)
        assert resumed.reused == kept
        assert resumed.spent == full.spent
        assert resumed.frontier_bytes() == full.frontier_bytes()

    def test_resume_of_a_finished_study_is_all_cache(self, backend, tmp_path):
        spec = small_spec()
        full = run_study(spec, backend, tmp_path / "study")
        again = resume_study(tmp_path / "study", backend)
        assert again.reused == full.spent
        assert again.frontier_bytes() == full.frontier_bytes()


_CHILD_SCRIPT = """\
import sys
import time

from repro.explore.backends import LocalBackend
from repro.explore.spec import load_spec
from repro.explore.study import run_study


class SlowBackend:
    def __init__(self, inner):
        self.inner = inner

    def submit(self, jobs):
        time.sleep(0.15)
        return self.inner.submit(jobs)

    def close(self):
        self.inner.close()


spec = load_spec(sys.argv[1])
run_study(spec, SlowBackend(LocalBackend()), sys.argv[2])
"""


class TestSigkillCrashConsistency:
    def test_sigkill_mid_round_then_resume_matches_uninterrupted(
        self, backend, tmp_path
    ):
        """Satellite contract: kill -9 mid-study, resume, identical bytes."""
        spec = small_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(codec.encode_json(spec.to_payload()))
        script_path = tmp_path / "child.py"
        script_path.write_text(_CHILD_SCRIPT)
        study_dir = tmp_path / "killed"
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, str(script_path), str(spec_path), str(study_dir)],
            env=env,
        )
        try:
            journal_path = study_dir / "journal.jsonl"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("child study finished before the kill")
                if (
                    journal_path.exists()
                    and journal_path.read_bytes().count(b'"type":"eval"') >= 3
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("child never journaled three evaluations")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
        _, records = StudyJournal(study_dir).load()
        assert 0 < len(records) < spec.budget  # genuinely mid-study
        resumed = resume_study(study_dir, backend)
        uninterrupted = run_study(spec, backend)
        assert resumed.reused == len(records)
        assert resumed.spent == uninterrupted.spent
        assert resumed.frontier_bytes() == uninterrupted.frontier_bytes()


class TestRandomFrontier:
    def test_equal_budget_and_deterministic(self, backend):
        spec = small_spec()
        a = random_frontier(spec, backend)
        b = random_frontier(spec, backend)
        assert a.spent == spec.budget
        assert a.frontier_bytes() == b.frontier_bytes()

    def test_seed_offset_changes_the_draw(self, backend):
        spec = small_spec()
        a = random_frontier(spec, backend, seed_offset=1)
        b = random_frontier(spec, backend, seed_offset=2)
        coords = lambda r: [rec["coordinates"] for rec in r.evaluations]
        assert coords(a) != coords(b)
