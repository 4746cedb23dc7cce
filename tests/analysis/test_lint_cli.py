"""``repro lint`` front-end: exit codes, baseline workflow, output modes."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.analysis.sarif import SARIF_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = {
    "src/repro/leak.py": """
    import time

    def stamp():
        return time.time()
    """
}

#: One R007 finding, one R001 finding, and a clean file.
FIXTURE = {
    "src/repro/service/eaten.py": """
    import asyncio

    async def drain(queue):
        try:
            await queue.join()
        except asyncio.CancelledError:
            pass
    """,
    "src/repro/clean.py": "VALUE = 1\n",
    **VIOLATION,
}


def lint(*argv: str) -> int:
    from repro.analysis.cli import run_lint
    from repro.cli import add_lint_arguments

    parser = argparse.ArgumentParser(prog="repro lint")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(list(argv)))


class TestExitCodes:
    def test_clean_repo_exits_zero(self, make_repo, capsys):
        root = make_repo({"src/repro/ok.py": "VALUE = 1\n"})
        assert lint("--root", str(root)) == 0
        assert "clean" in capsys.readouterr().err

    def test_new_finding_exits_one(self, make_repo, capsys):
        root = make_repo(VIOLATION)
        assert lint("--root", str(root)) == 1
        out = capsys.readouterr()
        assert "src/repro/leak.py" in out.out
        assert "R001" in out.out
        assert "1 new finding(s)" in out.err

    def test_unknown_rule_exits_two(self, make_repo, capsys):
        root = make_repo({})
        assert lint("--root", str(root), "--rule", "R999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, make_repo, capsys):
        root = make_repo({})
        assert lint("--root", str(root), "nowhere") == 2
        assert "does not exist" in capsys.readouterr().err

    def test_outside_checkout_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert lint("--root", str(empty)) == 2
        assert "not inside a repro checkout" in capsys.readouterr().err

    def test_config_typo_exits_two(self, make_repo, capsys):
        root = make_repo(
            {},
            """
            [tool.repro.analysis]
            seed_scpoe = ["src"]
            """,
        )
        assert lint("--root", str(root)) == 2
        assert "seed_scpoe" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_update_then_check_round_trip(self, make_repo, capsys):
        # Accepting current findings into the baseline must make the
        # very next --check pass, and the debt must stay visible.
        root = make_repo(VIOLATION)
        assert lint("--root", str(root), "--update-baseline") == 0
        capsys.readouterr()

        baseline = json.loads((root / "lint_baseline.json").read_text())
        assert baseline["version"] == 1
        assert len(baseline["findings"]) == 1
        assert baseline["findings"][0]["rule"] == "R001"

        assert lint("--root", str(root), "--check") == 0

        payload = self._json_report(root, capsys)
        assert payload["new_count"] == 0
        assert len(payload["baselined"]) == 1

    def test_new_violation_fails_despite_baseline(self, make_repo, capsys):
        root = make_repo(VIOLATION)
        assert lint("--root", str(root), "--update-baseline") == 0
        (root / "src" / "repro" / "fresh.py").write_text(
            "import time\n\nSTAMP = time.time()\n"
        )
        capsys.readouterr()
        assert lint("--root", str(root), "--check") == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_paid_down_debt_reported_stale(self, make_repo, capsys):
        root = make_repo(VIOLATION)
        assert lint("--root", str(root), "--update-baseline") == 0
        (root / "src" / "repro" / "leak.py").write_text("VALUE = 1\n")
        capsys.readouterr()
        assert lint("--root", str(root)) == 0
        assert "stale" in capsys.readouterr().err

    @staticmethod
    def _json_report(root: Path, capsys) -> dict:
        assert lint("--root", str(root), "--json") == 0
        return json.loads(capsys.readouterr().out)


class TestJsonOutput:
    def test_payload_shape(self, make_repo, capsys):
        root = make_repo(VIOLATION)
        assert lint("--root", str(root), "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new_count"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "R001"
        assert entry["path"] == "src/repro/leak.py"
        assert entry["severity"] == "error"
        assert payload["stale_baseline_entries"] == []

    def test_rule_filter_recorded(self, make_repo, capsys):
        root = make_repo({"src/repro/ok.py": "VALUE = 1\n"})
        assert lint("--root", str(root), "--rule", "R004", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["R004"]


class TestSarifShape:
    def sarif(self, make_repo, capsys) -> dict:
        root = make_repo(FIXTURE)
        assert (
            lint("--root", str(root), "--rule", "R001,R007",
                 "--format", "sarif")
            == 1
        )
        return json.loads(capsys.readouterr().out)

    def test_log_envelope(self, make_repo, capsys):
        log = self.sarif(make_repo, capsys)
        assert log["version"] == SARIF_VERSION
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1

    def test_driver_rules_and_results(self, make_repo, capsys):
        log = self.sarif(make_repo, capsys)
        run_ = log["runs"][0]
        driver = run_["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == ["R001", "R007"]
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note",
            )
        assert {r["ruleId"] for r in run_["results"]} == {"R001", "R007"}
        for result in run_["results"]:
            assert result["level"] in ("error", "warning", "note")
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert result["partialFingerprints"]["reproLintBaseline/v1"]

    def test_round_trips_through_json(self, make_repo, capsys):
        log = self.sarif(make_repo, capsys)
        assert json.loads(json.dumps(log)) == log


class TestCliIntegration:
    def test_comma_separated_rules(self, make_repo, capsys):
        root = make_repo(FIXTURE)
        assert (
            lint("--root", str(root), "--rule", "R004,R005", "--json") == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["R004", "R005"]

    def test_comma_list_rejects_unknown(self, make_repo, capsys):
        root = make_repo({})
        assert lint("--root", str(root), "--rule", "R001,R999") == 2
        assert "unknown rule 'R999'" in capsys.readouterr().err

    def test_sarif_output_file(self, make_repo, tmp_path, capsys):
        root = make_repo(FIXTURE)
        out = tmp_path / "report" / "lint.sarif"
        out.parent.mkdir()
        assert (
            lint("--root", str(root), "--format", "sarif", "--output", str(out))
            == 1
        )
        log = json.loads(out.read_text())
        assert log["version"] == SARIF_VERSION
        assert log["runs"][0]["results"]

    @pytest.mark.parametrize(
        "format_args", [["--json"], ["--format", "sarif"]],
        ids=["json", "sarif"],
    )
    def test_unwritable_output_exits_two(
        self, make_repo, tmp_path, capsys, format_args
    ):
        root = make_repo(VIOLATION)
        out = tmp_path / "missing" / "report.out"
        assert (
            lint("--root", str(root), *format_args, "--output", str(out))
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith(f"repro lint: error: cannot write {out}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--changed", "HEAD"], ["--no-cache"]],
        ids=["workers", "changed", "no-cache"],
    )
    def test_removed_engine_flags_exit_two(self, make_repo, capsys, flag):
        root = make_repo({})
        with pytest.raises(SystemExit) as excinfo:
            lint("--root", str(root), *flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profile_prints_rule_timings(self, make_repo, capsys):
        root = make_repo(FIXTURE)
        lint("--root", str(root), "--profile")
        err = capsys.readouterr().err
        assert "lint.R001" in err


class TestSelfCheck:
    def test_repo_own_tree_is_clean(self, capsys):
        # The acceptance invariant: this checkout passes its own
        # analyzer with the committed (empty-or-justified) baseline.
        assert lint("--root", str(REPO_ROOT), "--check") == 0
