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

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["run", "fig99"], "usage: repro run "),
            (["all", "--json", "/nonexistent/x.json"], "usage: repro all "),
            (["explore", "--study", "a.json", "--preset", "quick"],
             "usage: repro explore "),
        ],
        ids=["run", "all", "explore"],
    )
    def test_errors_print_the_subcommand_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith(usage)

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


class TestParseCost:
    def test_a_figure_run_loads_no_lint_rules_or_version(self, tmp_path):
        """Parsing attaches the lint flags without importing
        repro.analysis (whose package loads every rule module), and
        resolves the version only for --version."""
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['run', 'fig03', '--json'])\n"
            "print([m for m in ('repro.analysis.rules', 'repro.util.version')"
            " if m in sys.modules], file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"


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
    def test_forkless_platform_notes_serial_fallback(self, capsys, monkeypatch):
        import repro.cli  # noqa: F401 - ensure module import order
        import repro.sim.engine as engine_mod

        monkeypatch.setattr(engine_mod, "fork_available", lambda: False)
        assert main(["faults", "--quick", "--workers", "4"]) == 0
        assert "running serially" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "fig03"],
            ["all"],
            ["explore", "--preset", "quick"],
        ],
        ids=["run", "all", "explore"],
    )
    def test_flag_is_gone_outside_sweep_and_faults(self, capsys, args):
        with pytest.raises(SystemExit) as excinfo:
            main([*args, "--workers", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err


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

    def test_invalid_field_value_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--field", "num_banks=3,8"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "repro sweep: error: num_banks must be a power of two, got 3"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, message",
        [
            ("nuca=yes", "nuca must be a boolean, got 'yes'"),
            ("num_banks=2,8.0", "num_banks must be an integer, got 8.0"),
            ("seed=none", "seed must be an integer, got None"),
            (f"controller_overhead_cycles=4,{10**30}",
             f"controller_overhead_cycles must be in [0, 1000000], got {10**30}"),
            ("warp_factor=1", "unknown --field 'warp_factor'; known: "),
        ],
        ids=["text-nuca", "float-banks", "null-seed", "huge-overhead",
             "unknown"],
    )
    def test_field_values_are_typed(self, capsys, field, message):
        """The values of a --field are typed and bounded like the same
        fields of a /sweep request: a wrong one exits 2 naming it,
        under the sweep command's own usage line."""
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--field", field, "--json"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: repro sweep ")
        assert lines[-1].startswith(f"repro sweep: error: {message}")
        assert captured.out == ""

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


class TestRetiredPersistenceTier:
    """The segment warehouse and ``repro chaos`` are gone: each way in
    is an argparse usage error before any work starts.

    argparse accepts any unambiguous prefix of an option, so ``--ware``
    is refused only when no option starting with it is left, the
    retired warehouse directory option included.  The other arguments
    make a regression fail fast instead of starting work.
    """

    @pytest.mark.parametrize(
        "args,message",
        [
            (["chaos", "--help"], "invalid choice: 'chaos'"),
            (["serve", "--port", "0", "--max-queue", "0", "--ware", "d"],
             "unrecognized arguments: --ware d"),
            (["explore", "--study", "x.json", "--preset", "quick",
              "--ware", "d"],
             "unrecognized arguments: --ware d"),
            (["cache-stats", "--ware", "d"],
             "unrecognized arguments: --ware d"),
        ],
        ids=["chaos", "serve", "explore", "cache-stats"],
    )
    def test_exits_2_with_a_usage_error(self, capsys, args, message):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert message in err
        assert "Traceback" not in err


class TestChaosCommand:
    """The flags ``repro chaos`` once took still exit 2; the subcommand
    itself is now refused before its flags are read."""

    @pytest.mark.parametrize(
        "flags", [["--seed", "0"], ["--check"]], ids=["seed", "check"]
    )
    def test_removed_flags_exit_two(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--quick", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'chaos'" in err
        assert "Traceback" not in err


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
            ["sweep", "--field", "num_banks=2,8", "--workers", "0"],
            ["faults", "--quick", "--workers", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
        ],
        ids=["run", "all", "validate", "sweep", "sweep-workers",
             "faults-workers", "serve-high", "serve-low"],
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
        assert f"repro all: error: cannot write {out}: " in err
        assert "running fig01" not in err  # failed before the figures ran
        assert not out.parent.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_store_exits_2_and_creates_nothing(
        self, tmp_path, capsys, kind
    ):
        if kind == "missing":
            store = tmp_path / "typo" / "store.pkl"
        else:
            store = tmp_path / "store.pkl"
            store.mkdir()
        assert main(["cache-stats", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err == f"repro cache-stats: error: no store at {store}\n"
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if kind == "missing" else ["store.pkl"]
        )


class TestStoreFileBoundary:
    """A bad ``REPRO_RESULT_STORE`` never costs a command its output:
    the store warns, the command prints its result and exits 0, and no
    file of the user's is renamed."""

    @staticmethod
    def _run(args, cwd, store):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"), REPRO_RESULT_STORE=store
        )
        return subprocess.run(
            [_sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, cwd=cwd, timeout=120,
        )

    @pytest.mark.parametrize("args", [["--help"], ["run", "fig03"]],
                             ids=["help", "run"])
    def test_an_empty_value_means_no_store(self, tmp_path, args):
        proc = self._run(args, tmp_path, "")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_is_left_in_place(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        proc = self._run(["run", "fig03"], tmp_path, str(store))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("=== fig03")
        assert f"result store {store} cannot be read" in proc.stderr
        assert f"could not save result store {store}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["store"]
        assert store.is_dir() and list(store.iterdir()) == []

    def test_a_path_under_a_regular_file_warns_at_save(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        store = blocker / "store.pkl"
        proc = self._run(["run", "fig03"], tmp_path, str(store))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("=== fig03")
        assert f"could not save result store {store}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert blocker.read_text() == "keep"


class TestServeSavesItsStore:
    def test_a_sigint_stop_saves_the_store(self, tmp_path):
        """``repro serve`` saves ``REPRO_RESULT_STORE`` at a clean stop
        (SIGINT), and ``cache-stats`` reads what it saved."""
        import os
        import re
        import signal
        import subprocess
        import sys as _sys
        from pathlib import Path

        from repro.service.client import ServiceClient

        root = Path(__file__).resolve().parent.parent
        store = tmp_path / "serve.pkl"
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"),
            REPRO_RESULT_STORE=str(store),
        )
        server = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, cwd=tmp_path, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stderr.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            with ServiceClient(port=port) as client:
                client.simulate("Ocean", system={"sample_blocks": 100})
            server.send_signal(signal.SIGINT)
            _, err = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert server.returncode == 0, err
        assert "Traceback" not in err
        assert "repro service stopped" in err
        stats = subprocess.run(
            [_sys.executable, "-m", "repro", "cache-stats", "--store",
             str(store)],
            env=env, capture_output=True, text=True, cwd=tmp_path,
            timeout=120,
        )
        assert stats.returncode == 0, stats.stderr
        assert "entries: 0" not in stats.stdout
        assert "misses:  " in stats.stdout
