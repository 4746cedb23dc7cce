"""Study report emitters: JSON summary and Markdown document."""

from __future__ import annotations

from repro.explore.backends import LocalBackend
from repro.explore.report import study_report, summarize
from repro.explore.spec import Axis, StudySpec
from repro.explore.study import run_study
from repro.reporting import frontier_rows


def run_small_study(**overrides):
    base = dict(
        name="report-test",
        axes=(
            Axis("scheme", "categorical", values=("binary", "desc-zero")),
            Axis("num_banks", "categorical", values=(2, 4, 8)),
        ),
        apps=("Ocean",),
        budget=6,
        max_rounds=1,
        sample_blocks=100,
        seed=0,
    )
    base.update(overrides)
    return run_study(StudySpec(**base), LocalBackend())


class TestSummarize:
    def test_summary_shape(self):
        result = run_small_study()
        summary = summarize(result)
        assert summary["spent"] == 6
        assert summary["failed"] == 0
        assert summary["failed_points"] == []
        assert summary["spec"]["name"] == "report-test"
        assert len(summary["frontier"]) == len(result.frontier)

    def test_failures_carried_with_reasons(self):
        result = run_small_study(
            axes=(Axis("warp_factor", "int", low=1, high=4),), budget=2
        )
        summary = summarize(result)
        assert summary["failed"] == summary["spent"] > 0
        assert all(
            "warp_factor" in fp["reason"]
            for fp in summary["failed_points"]
        )


class TestStudyReport:
    def test_markdown_sections(self):
        result = run_small_study()
        report = study_report(result)
        assert report.startswith("# Study report: report-test")
        assert "## Pareto frontier" in report
        assert "| energy_j |" in report or "energy_j" in report
        assert "Failed design points" not in report

    def test_empty_frontier_and_failure_section(self):
        result = run_small_study(
            axes=(Axis("warp_factor", "int", low=1, high=4),), budget=2
        )
        report = study_report(result)
        assert "*(empty frontier" in report
        assert "## Failed design points" in report


def test_frontier_rows_align_params_and_objectives():
    points = [
        {"params": {"b": 2}, "objectives": [1.0, 2.0]},
        {"params": {"a": 1, "b": 3}, "objectives": [3.0, 4.0]},
    ]
    headers, rows = frontier_rows(points, ("energy_j", "risk"))
    assert headers == ["a", "b", "energy_j", "risk"]
    assert rows[0][:2] == ["", "2"] or rows[0][:2] == ["", 2]
