"""Tests for the figure-regeneration CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig16", "fig19", "fig30"):
            assert name in out

    def test_lists_22_figures(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if line.strip().startswith("fig")) == 22


class TestRun:
    def test_run_pretty(self, capsys):
        assert main(["run", "fig03"]) == 0
        out = capsys.readouterr().out
        assert "parallel" in out and "desc" in out

    def test_run_json(self, capsys):
        assert main(["run", "fig03", "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["parallel"]["flips"] == 4

    def test_run_with_sample_size(self, capsys):
        assert main(["run", "fig12", "--sample-blocks", "500"]) == 0
        out = capsys.readouterr().out
        assert "zero_fraction" in out

    def test_unknown_figure_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_system_figure_runs(self, capsys):
        assert main(["run", "fig17", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert 1800 < data["pair_area_um2"] < 2500


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        from repro.util.version import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert package_version() in out

    def test_package_version_matches_dunder(self):
        import repro
        from repro.util.version import package_version

        # Not installed as a distribution in every environment, so the
        # helper may fall back to the package attribute — either way it
        # must return a non-empty version string.
        assert package_version()
        assert package_version() in (repro.__version__, package_version())


class TestCacheStats:
    def test_reports_in_process_store(self, capsys):
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert "hit rate:" in out

    def test_reports_persisted_store(self, capsys, tmp_path):
        from repro.sim.store import ResultStore

        path = tmp_path / "store.pkl"
        store = ResultStore(path)
        store.get_or_compute(("k",), lambda: 1)
        store.get_or_compute(("k",), lambda: 1)
        store.save()

        assert main(["cache-stats", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "hits:    1" in out
        assert "misses:  1" in out

    def test_stats_reflect_a_run(self, capsys):
        from repro.sim.system import ENGINE, clear_caches

        clear_caches()
        main(["run", "fig01", "--sample-blocks", "400"])
        capsys.readouterr()
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" not in out
        assert ENGINE.store.stats().size > 0


class TestWorkersFlag:
    def test_workers_flag_sets_engine_default(self):
        from repro.sim.engine import get_default_max_workers, set_default_max_workers

        before = get_default_max_workers()
        try:
            main(["run", "fig03", "--workers", "2"])
            assert get_default_max_workers() == 2
        finally:
            set_default_max_workers(before)

    def test_forkless_platform_notes_serial_fallback(self, capsys, monkeypatch):
        import repro.cli  # noqa: F401 - ensure module import order
        import repro.sim.engine as engine_mod
        from repro.sim.engine import get_default_max_workers, set_default_max_workers

        monkeypatch.setattr(engine_mod, "fork_available", lambda: False)
        before = get_default_max_workers()
        try:
            assert main(["run", "fig03", "--workers", "4"]) == 0
            assert "running serially" in capsys.readouterr().err
        finally:
            set_default_max_workers(before)


class TestProfileFlag:
    def test_profile_prints_stage_table(self, capsys):
        from repro.util.profiling import PROFILER

        PROFILER.reset()
        try:
            from repro.sim.system import clear_caches

            clear_caches()  # force stage recomputation so timers fire
            assert main(["run", "fig01", "--sample-blocks", "400",
                         "--profile"]) == 0
            err = capsys.readouterr().err
            assert "stage.workload" in err
            assert "stage.timing" in err
        finally:
            PROFILER.disable()
            PROFILER.reset()

    def test_without_flag_profiler_stays_disabled(self, capsys):
        from repro.util.profiling import PROFILER

        PROFILER.reset()
        assert main(["run", "fig03"]) == 0
        assert not PROFILER.enabled
        assert PROFILER.report() == {}


class TestFaultsCommand:
    def test_quick_sweep_pretty(self, capsys):
        assert main(["faults", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "resid-ber" in out

    def test_quick_sweep_json(self, capsys):
        assert main(["faults", "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points"] == 8  # 2 drop rates x 2 intervals x 2 ecc
        assert data["failed"] == 0
        for row in data["rows"]:
            if row["drop_rate"] == 0.0 and row["ecc"]:
                assert row["silent"] == 0
                assert row["residual_bit_error_rate"] == 0.0

    def test_check_passes_on_fixed_seed(self, capsys):
        assert main(["faults", "--quick", "--check"]) == 0
        assert "passed" in capsys.readouterr().err

    def test_seed_changes_the_table(self, capsys):
        main(["faults", "--quick", "--json", "--seed", "1"])
        one = json.loads(capsys.readouterr().out)
        main(["faults", "--quick", "--json", "--seed", "1"])
        again = json.loads(capsys.readouterr().out)
        assert one == again  # deterministic in the seed

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--check"]])
    def test_negative_seed_exits_2(self, capsys, extra):
        assert main(["faults", "--quick", "--seed", "-1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "repro faults: error: --seed must be >= 0"
        assert captured.out == ""


class TestSweepCommand:
    ARGS = ["sweep", "--scheme", "desc-zero", "--sample-blocks", "400"]

    def test_sweep_pretty(self, capsys):
        assert main(self.ARGS + ["--field", "num_banks=2,8"]) == 0
        out = capsys.readouterr().out
        assert "num_banks=2" in out and "num_banks=8" in out
        assert "cycles=" in out

    def test_sweep_json(self, capsys):
        assert main(self.ARGS + ["--field", "num_banks=8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        [point] = payload["points"]
        assert point["params"] == {"num_banks": 8}
        assert point["cycles"] > 0
        assert point["edp"] == pytest.approx(
            point["cycles"] * point["l2_energy_j"]
        )
        assert payload["failed_points"] == []

    def test_field_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS)
        assert excinfo.value.code == 2

    def test_malformed_field_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--field", "num_banks"])
        assert excinfo.value.code == 2

    def test_unknown_field_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--field", "warp_factor=1,2"])
        assert excinfo.value.code == 2

    def test_unknown_scheme_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scheme", "morse-code",
                  "--field", "num_banks=8"])
        assert excinfo.value.code == 2

    def test_corrupt_persisted_store_warns_and_completes(self, tmp_path):
        """Acceptance: a corrupted store pickle leaves ``repro sweep``
        finishing with a warning, never a crash."""
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        store = tmp_path / "store.pkl"
        store.write_bytes(b"definitely not a pickle")
        env = dict(
            os.environ,
            REPRO_RESULT_STORE=str(store),
            PYTHONPATH=str(root / "src"),
        )
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "sweep",
             "--scheme", "desc-zero", "--field", "num_banks=8",
             "--sample-blocks", "300"],
            env=env, capture_output=True, text=True, cwd=root,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "num_banks=8" in proc.stdout
        assert "corrupt" in proc.stderr
        assert (tmp_path / "store.pkl.corrupt").exists()
        assert store.exists()  # the run saved a fresh, valid store


class TestServeCommand:
    """Bad ``repro serve`` flags: a one-line error and exit code 2,
    never a traceback (the server never starts)."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-queue", "0", "max_queue must be >= 1, got 0"),
            ("--max-batch", "-1", "max_batch must be >= 1, got -1"),
        ],
    )
    def test_bad_queue_and_batch_bounds_exit_2(
        self, capsys, flag, value, message
    ):
        assert main(["serve", "--port", "0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"repro serve: error: {message}\n"

    @pytest.mark.parametrize(
        "flag", ["--workers", "--shards", "--job-timeout"]
    )
    def test_pool_and_shard_flags_are_gone(self, capsys, flag):
        # --max-queue 0 keeps a regression from starting a server.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--max-queue", "0", flag, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutsideCheckout:
    """``repro lint`` away from a checkout: clear error, exit code 2,
    never a traceback."""

    @staticmethod
    def _run_away_from_repo(args, tmp_path):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return subprocess.run(
            [_sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, cwd=tmp_path,
            timeout=120,
        )

    def test_lint_outside_checkout(self, tmp_path):
        proc = self._run_away_from_repo(["lint"], tmp_path)
        assert proc.returncode == 2
        assert "not inside a repro checkout" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_lint_inside_checkout_via_subprocess(self, tmp_path):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "lint", "--check"],
            env=env, capture_output=True, text=True, cwd=root,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestBadArguments:
    """Bad numbers and paths: a usage error and exit code 2 before any
    work starts, never a traceback."""

    @staticmethod
    def _run(args, cwd):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return subprocess.run(
            [_sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, cwd=cwd, timeout=120,
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "fig20", "--sample-blocks", "0"],
            ["all", "--sample-blocks", "0"],
            ["validate", "--sample-blocks", "-1"],
            ["sweep", "--field", "l2_banks=1,2", "--sample-blocks", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
        ],
        ids=["run", "all", "validate", "sweep", "serve-high", "serve-low"],
    )
    def test_out_of_range_number_exits_2(self, tmp_path, args):
        proc = self._run(args, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"argument {args[-2]}: must be" in proc.stderr

    @pytest.mark.parametrize("extra", [[], ["--check"]])
    def test_missing_study_file_exits_2(self, tmp_path, capsys, extra):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--study", str(missing), *extra])
        assert excinfo.value.code == 2
        assert f"{missing}: cannot read: " in capsys.readouterr().err

    def test_unwritable_json_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "out.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["all", "--sample-blocks", "200", "--json", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: cannot write {out}: " in err
        assert "running fig01" not in err  # failed before the figures ran
        assert not out.parent.exists()

    @pytest.mark.parametrize("via_env", [False, True])
    def test_missing_warehouse_exits_2_and_creates_nothing(
        self, tmp_path, capsys, monkeypatch, via_env
    ):
        from repro.sim.store import WAREHOUSE_ENV

        missing = tmp_path / "typo" / "dir"
        if via_env:
            monkeypatch.setenv(WAREHOUSE_ENV, str(missing))
            args = ["cache-stats"]
        else:
            monkeypatch.delenv(WAREHOUSE_ENV, raising=False)
            args = ["cache-stats", "--warehouse", str(missing)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"repro cache-stats: error: no warehouse at {missing}\n"
        assert not (tmp_path / "typo").exists()
