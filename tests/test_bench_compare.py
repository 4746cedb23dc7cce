"""``repro bench --against``: rate comparison and the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench import compare_reports, format_comparison, resolve_baseline
from repro.cli import main


def _report(
    group_rank=100.0,
    native=1000.0,
    blocks=5000.0,
    quick=False,
    generated="2026-08-07T12:00:00+00:00",
):
    return {
        "schema": 1,
        "revision": "abc1234",
        "generated": generated,
        "quick": quick,
        "kernels": {
            "group_rank": {
                "elements": 1000, "seconds": 1.0,
                "elements_per_sec": group_rank,
            },
        },
        "multicore": {
            "engines": {
                "native": {"seconds": 1.0, "references_per_sec": native},
            },
        },
        "end_to_end": {
            "experiment": "fig20",
            "sample_blocks": 1500,
            "jobs": 128,
            "seconds": 1.0,
            "blocks_per_sec": blocks,
        },
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        rows, regressions = compare_reports(_report(), _report(), 0.5)
        assert regressions == []
        assert {r["metric"] for r in rows} == {
            "kernels.group_rank", "multicore.native", "end_to_end.fig20",
        }
        assert all(r["ratio"] == 1.0 for r in rows)

    def test_regression_past_tolerance_flagged(self):
        current = _report(group_rank=30.0)  # -70% < -50% tolerance
        rows, regressions = compare_reports(current, _report(), 0.5)
        assert regressions == ["kernels.group_rank"]

    def test_drop_within_tolerance_passes(self):
        current = _report(group_rank=60.0)  # -40%
        _, regressions = compare_reports(current, _report(), 0.5)
        assert regressions == []

    def test_improvement_never_fails(self):
        current = _report(group_rank=1e6, native=1e7, blocks=1e6)
        _, regressions = compare_reports(current, _report(), 0.0)
        assert regressions == []

    def test_metrics_missing_on_either_side_are_skipped(self):
        baseline = _report()
        baseline["kernels"]["gone"] = {
            "elements": 1, "seconds": 1.0, "elements_per_sec": 5.0,
        }
        current = _report()
        rows, regressions = compare_reports(current, baseline, 0.5)
        assert "kernels.gone" not in {r["metric"] for r in rows}
        assert regressions == []

    def test_format_marks_regressions(self):
        rows, regressions = compare_reports(
            _report(group_rank=10.0), _report(), 0.5
        )
        text = format_comparison(rows, regressions)
        assert "REGRESSED" in text
        assert "kernels.group_rank" in text
        assert "-90.0%" in text


class TestResolveBaseline:
    def test_file_path_used_as_is(self, tmp_path):
        snap = tmp_path / "BENCH_abc.json"
        snap.write_text(json.dumps(_report()))
        assert resolve_baseline(str(snap)) == snap

    def test_directory_picks_newest_generated_stamp(self, tmp_path):
        old = tmp_path / "BENCH_old.json"
        old.write_text(
            json.dumps(_report(generated="2026-01-01T00:00:00+00:00"))
        )
        new = tmp_path / "BENCH_new.json"
        new.write_text(
            json.dumps(_report(generated="2026-08-01T00:00:00+00:00"))
        )
        assert resolve_baseline(str(tmp_path)) == new

    def test_directory_without_snapshots_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_baseline(str(tmp_path))

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_baseline(str(tmp_path / "nope.json"))


class TestBenchAgainstCli:
    """Exit codes of the CLI gate, with the benchmark run stubbed out."""

    @pytest.fixture
    def stub_run(self, monkeypatch):
        def install(report):
            import repro.bench as bench_mod

            monkeypatch.setattr(
                bench_mod, "run_benchmarks", lambda quick=False: report
            )

        return install

    def test_clean_comparison_exits_zero(
        self, stub_run, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(_report()))
        stub_run(_report())
        out = tmp_path / "report.json"
        rc = main([
            "bench", "--quick", "--out", str(out),
            "--against", str(baseline),
        ])
        assert rc == 0
        assert "end_to_end.fig20" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, stub_run, tmp_path, capsys):
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(_report()))
        stub_run(_report(native=10.0))  # -99%
        out = tmp_path / "report.json"
        rc = main([
            "bench", "--quick", "--out", str(out),
            "--against", str(baseline),
        ])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_is_configurable(self, stub_run, tmp_path):
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(_report()))
        stub_run(_report(group_rank=80.0))  # -20%
        out = tmp_path / "report.json"
        assert main([
            "bench", "--quick", "--out", str(out),
            "--against", str(baseline), "--tolerance", "0.3",
        ]) == 0
        assert main([
            "bench", "--quick", "--out", str(out),
            "--against", str(baseline), "--tolerance", "0.1",
        ]) == 1

    def test_unreadable_baseline_is_a_clear_error(
        self, stub_run, tmp_path, capsys
    ):
        stub_run(_report())
        out = tmp_path / "report.json"
        rc = main([
            "bench", "--quick", "--out", str(out),
            "--against", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_bad_tolerance_rejected(self, stub_run, tmp_path):
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(_report()))
        stub_run(_report())
        with pytest.raises(SystemExit):
            main([
                "bench", "--against", str(baseline),
                "--tolerance", "1.5",
            ])
