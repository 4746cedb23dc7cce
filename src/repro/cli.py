"""Command-line front-end: regenerate any paper figure from the shell.

Usage::

    python -m repro list                     # figures and what they show
    python -m repro run fig16                # pretty-print one figure
    python -m repro run fig19 --json         # machine-readable output
    python -m repro run fig25 --sample-blocks 1500
    python -m repro run fig20 --profile      # per-stage wall-clock table
    python -m repro all --json results.json  # run everything, save JSON
    python -m repro cache-stats              # result-store hit/miss/size
    python -m repro faults --quick           # fault-injection sweep
    python -m repro faults --quick --check   # CI smoke assertions
    python -m repro sweep --scheme desc-zero --field num_banks=2,8,32
    python -m repro explore --preset quick   # adaptive Pareto study
    python -m repro explore --preset quick --check   # explore smoke checks
    python -m repro explore --resume out/    # continue a crashed study
    python -m repro lint                     # repo-specific static analysis
    python -m repro lint --check --json      # CI mode, machine-readable
    python -m repro serve --port 8765        # async simulation service
    python -m repro serve --check --quick    # service smoke check
    python -m repro --version                # package version

The heavy lifting lives in :mod:`repro.experiments`; this module only
dispatches and formats.  ``--workers N`` belongs to ``sweep`` and
``faults`` alone: it fans their job grid out over a process pool
(results are identical to serial).  Set the
``REPRO_RESULT_STORE`` environment variable to a file path to persist
the stage result store across invocations (``repro serve`` saves it at
a clean stop); ``cache-stats`` then reports the accumulated statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from typing import IO

from repro.sim.config import SystemConfig

__all__ = ["main", "FIGURES", "add_lint_arguments"]


def _int_type(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type`` for integers in ``[low, high]``.

    Out-of-range values become a usage error (exit 2) at parse time,
    before any command runs.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}-{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_positive_int = _int_type(1)
_port = _int_type(0, 65535)


class _VersionAction(argparse.Action):
    """``--version``: print the package version and exit.

    Unlike argparse's own ``version`` action, the version is resolved
    (an ``importlib.metadata`` lookup) only when the flag is given.
    """

    def __init__(self, option_strings: list[str], dest: str) -> None:
        super().__init__(
            option_strings, dest=argparse.SUPPRESS, default=argparse.SUPPRESS,
            nargs=0, help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        from repro.util.version import package_version

        print(f"{parser.prog} {package_version()}")
        parser.exit()


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to an argparse (sub)parser.

    Declared here, not beside :func:`repro.analysis.cli.run_lint`, so
    that parsing any other command imports nothing from
    :mod:`repro.analysis`, whose package loads every lint rule.
    """
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="trees to analyze (default: the configured paths)",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="checkout root (default: walk up from the current directory)",
    )
    parser.add_argument(
        "--rule", action="append", default=[], metavar="RXXX[,RYYY]",
        dest="rules",
        help="run only the given rules (repeatable and/or comma-"
             "separated), e.g. --rule R001,R007",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline file (default: the configured one)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="accept every current finding into the baseline and exit 0",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: quiet on success, exit 1 on any non-baselined finding",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        dest="format_",
        help="report format (default: text; 'sarif' emits SARIF 2.1.0)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the json/sarif report to FILE instead of stdout",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-rule wall time after the run",
    )


def _system_runner(module) -> Callable[[argparse.Namespace], dict]:
    def run(args: argparse.Namespace) -> dict:
        return module.run(SystemConfig(sample_blocks=args.sample_blocks))

    return run


def _blocks_runner(module) -> Callable[[argparse.Namespace], dict]:
    def run(args: argparse.Namespace) -> dict:
        return module.run(num_blocks=args.sample_blocks)

    return run


def _plain_runner(module) -> Callable[[argparse.Namespace], dict]:
    def run(args: argparse.Namespace) -> dict:
        return module.run()

    return run


def _build_registry() -> dict[str, tuple[str, Callable]]:
    import repro.experiments as ex

    return {
        "fig01": ("L2 energy fraction of processor energy",
                  _system_runner(ex.fig01_l2_fraction)),
        "fig02": ("L2 energy breakdown (static / other / H-tree)",
                  _system_runner(ex.fig02_l2_breakdown)),
        "fig03": ("parallel vs serial vs DESC on one byte",
                  _plain_runner(ex.fig03_illustrative)),
        "fig12": ("distribution of 4-bit chunk values",
                  _blocks_runner(ex.fig12_chunk_values)),
        "fig13": ("fraction of last-value-matching chunks",
                  _blocks_runner(ex.fig13_last_value)),
        "fig14": ("device-type design-space exploration",
                  _system_runner(ex.fig14_design_space)),
        "fig15": ("baseline energy vs segment size",
                  _system_runner(ex.fig15_segment_size)),
        "fig16": ("L2 energy of the eight transfer schemes",
                  _system_runner(ex.fig16_l2_energy)),
        "fig17": ("DESC transmitter/receiver synthesis results",
                  _plain_runner(ex.fig17_synthesis)),
        "fig18": ("static vs dynamic L2 energy per scheme",
                  _system_runner(ex.fig18_energy_split)),
        "fig19": ("processor energy with zero-skipped DESC",
                  _system_runner(ex.fig19_processor_energy)),
        "fig20": ("execution time per scheme",
                  _system_runner(ex.fig20_exec_time)),
        "fig21": ("average L2 hit delay, binary vs DESC",
                  _system_runner(ex.fig21_hit_delay)),
        "fig22": ("(energy, delay) design-space scatter",
                  _system_runner(ex.fig22_design_scatter)),
        "fig23": ("S-NUCA-1 execution time with DESC",
                  _system_runner(ex.fig23_snuca_time)),
        "fig24": ("S-NUCA-1 L2 energy with DESC",
                  _system_runner(ex.fig24_snuca_energy)),
        "fig25": ("sensitivity to the number of banks",
                  _system_runner(ex.fig25_banks)),
        "fig26": ("sensitivity to chunk size and wire count",
                  _system_runner(ex.fig26_chunk_size)),
        "fig27": ("impact of L2 capacity on cache energy",
                  _system_runner(ex.fig27_cache_size)),
        "fig28": ("execution time under SECDED ECC",
                  _system_runner(ex.fig28_ecc_time)),
        "fig29": ("L2 energy under SECDED ECC",
                  _system_runner(ex.fig29_ecc_energy)),
        "fig30": ("single-threaded out-of-order execution time",
                  _system_runner(ex.fig30_single_thread)),
    }


#: Lazily built figure registry (name → (description, runner)).
FIGURES: dict[str, tuple[str, Callable]] | None = None


def _figures() -> dict[str, tuple[str, Callable]]:
    global FIGURES
    if FIGURES is None:
        FIGURES = _build_registry()
    return FIGURES


def _pretty(value, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)) and inner and not isinstance(
                inner, str
            ):
                print(f"{pad}{key}:")
                _pretty(inner, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar(inner)}")
    elif isinstance(value, list):
        print(pad + ", ".join(_scalar(v) for v in value))
    else:
        print(pad + _scalar(value))


def _scalar(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _cache_stats(store_path: str | None) -> int:
    import os

    from repro.sim.store import RESULT_STORE, ResultStore

    if store_path is None:
        store = RESULT_STORE
    elif os.path.isfile(store_path):
        store = ResultStore(store_path)
    else:
        print(f"repro cache-stats: error: no store at {store_path}",
              file=sys.stderr)
        return 2
    stats = store.stats()
    where = store.path if store.path else "in-process"
    cap = stats.max_entries if stats.max_entries is not None else "unbounded"
    print(f"result store ({where})")
    print(f"  entries: {stats.size}")
    print(f"  cap:     {cap}")
    print(f"  hits:    {stats.hits}")
    print(f"  misses:  {stats.misses}")
    print(f"  evictions: {stats.evictions}")
    print(f"  hit rate: {stats.hit_rate:.1%}")
    return 0


def _open_output(
    path: str, mode: str, parser: argparse.ArgumentParser
) -> IO[str]:
    """Open an output file, turning an OSError into a usage error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")


def _print_profile(args: argparse.Namespace) -> None:
    """Print the per-stage timing table when ``--profile`` was given."""
    if not getattr(args, "profile", False):
        return
    from repro.util.profiling import PROFILER

    print(PROFILER.format_report(), file=sys.stderr)


def _save_store() -> None:
    """Persist the global store when REPRO_RESULT_STORE names a file."""
    from repro.sim.store import RESULT_STORE

    RESULT_STORE.persist()


def _run_faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand: sweep and/or smoke-check."""
    from repro.experiments import fault_sweep

    # Validate the flags before either mode runs.
    if args.seed < 0:
        print("repro faults: error: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.check:
        problems = fault_sweep.smoke_check(seed=args.seed)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print("fault-injection smoke checks passed", file=sys.stderr)
        return 0
    result = fault_sweep.run(
        quick=args.quick, seed=args.seed, max_workers=args.workers
    )
    _save_store()
    if args.json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
        return 0
    geometry = result["geometry"]
    print(
        f"=== fault sweep: {geometry['num_blocks']} x "
        f"{geometry['block_bits']}-bit blocks, seed {result['seed']} ==="
    )
    header = (f"{'drop':>8s} {'resync':>7s} {'ecc':>4s} {'lost':>5s} "
              f"{'clean':>6s} {'corr':>5s} {'det':>4s} {'silent':>6s} "
              f"{'chunk-err':>10s} {'resid-ber':>10s} {'rec-lat':>8s} "
              f"{'e-ovh':>7s}")
    print(header)
    for row in result["rows"]:
        interval = row["resync_interval"]
        if "failed" in row:
            print(f"{row['drop_rate']:>8g} {str(interval):>7s} "
                  f"{'on' if row['ecc'] else 'off':>4s}  "
                  f"FAILED ({row['failed']})")
            continue
        print(
            f"{row['drop_rate']:>8g} {str(interval):>7s} "
            f"{'on' if row['ecc'] else 'off':>4s} {row['blocks_lost']:>5d} "
            f"{row['clean']:>6d} {row['corrected']:>5d} {row['detected']:>4d} "
            f"{row['silent']:>6d} {row['chunk_error_rate']:>10.2e} "
            f"{row['residual_bit_error_rate']:>10.2e} "
            f"{row['mean_recovery_latency']:>8.1f} "
            f"{row['resync_energy_overhead']:>7.4f}"
        )
    if result["failed"]:
        print(f"{result['failed']} campaign(s) failed", file=sys.stderr)
    return 0


def _parse_sweep_value(text: str) -> int | float | bool | str | None:
    """A swept value: int, float, bool, or None, falling back to str."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``sweep`` subcommand: grid sweeps over SystemConfig fields."""
    from repro.sim.config import (
        FIELD_TYPES,
        SystemConfig,
        baseline_scheme,
        desc_scheme,
    )
    from repro.sim.sweeps import sweep

    schemes = {
        "desc": lambda: desc_scheme("none"),
        "desc-zero": lambda: desc_scheme("zero"),
        "desc-last-value": lambda: desc_scheme("last-value"),
        "binary": baseline_scheme,
    }
    if args.scheme not in schemes:
        parser.error(
            f"unknown scheme {args.scheme!r}; choose from {sorted(schemes)}"
        )
    if not args.fields:
        parser.error("provide at least one --field NAME=V1,V2,...")
    field_types = FIELD_TYPES[SystemConfig]
    field_values: dict[str, list] = {}
    for spec in args.fields:
        name, _, values = spec.partition("=")
        if not values:
            parser.error(f"malformed --field {spec!r}; expected NAME=V1,V2,...")
        field_values[name] = [
            _parse_sweep_value(v) for v in values.split(",")
        ]
        if name not in field_types:
            parser.error(
                f"unknown --field {name!r}; known: {', '.join(sorted(field_types))}"
            )
        accepted, expected = field_types[name]
        for value in field_values[name]:
            if type(value) not in accepted:
                parser.error(f"{name} must be {expected}, got {value!r}")
    base = SystemConfig(sample_blocks=args.sample_blocks)
    try:
        points = sweep(
            schemes[args.scheme](), base=base, max_workers=args.workers,
            **field_values,
        )
    except (TypeError, ValueError) as exc:  # unknown field, bad value
        parser.error(str(exc))
    _save_store()
    if args.json:
        payload = {
            "points": [
                {
                    "params": p.params,
                    "cycles": p.cycles,
                    "l2_energy_j": p.l2_energy_j,
                    "processor_energy_j": p.processor_energy_j,
                    "hit_latency": p.hit_latency,
                    "edp": p.edp,
                }
                for p in points
            ],
            "failed_points": [
                {
                    "params": f.params,
                    "app": f.app,
                    "reason": f.reason,
                    "attempts": f.attempts,
                }
                for f in points.failed_points
            ],
        }
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        return 0
    print(f"=== sweep: {args.scheme} over {', '.join(field_values)} ===")
    for p in points:
        params = ", ".join(f"{k}={v}" for k, v in p.params.items())
        print(
            f"{params}: cycles={p.cycles:.4g} l2={p.l2_energy_j:.4g} J "
            f"proc={p.processor_energy_j:.4g} J hit={p.hit_latency:.4g}"
        )
    for f in points.failed_points:
        params = ", ".join(f"{k}={v}" for k, v in f.params.items())
        print(
            f"failed: {f.app} at {params}: {f.reason} "
            f"({f.attempts} attempt(s))",
            file=sys.stderr,
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run (or smoke-check) the service."""
    from repro.service.pipeline import ServiceConfig, SimulationService

    # Validate the flags before either mode runs.
    try:
        config = ServiceConfig(
            max_queue=args.max_queue, max_batch=args.max_batch
        )
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    if args.check:
        from repro.service.check import run_check

        code, summary = run_check(
            quick=args.quick,
            metrics_out=args.metrics_out,
            expect_warm=args.expect_warm,
        )
        if args.json:
            json.dump(
                {k: v for k, v in summary.items() if k != "metrics"},
                sys.stdout, indent=2,
            )
            print()
        else:
            print(
                f"service check: {summary['answered']}/{summary['requests']} "
                f"requests answered from {summary['clients']} clients over "
                f"{summary['golden_configs']} golden configs"
            )
            print(
                f"  coalesced: {summary['coalesced_total']}  "
                f"combined hit rate: {summary['combined_hit_rate']:.1%}  "
                f"byte-identical: {summary['byte_identical']}"
            )
            if summary["store"]:
                print(
                    f"  store: {summary['store']}  store hits: "
                    f"{summary['store_hits']}/{summary['requests']}"
                )
            for problem in summary["problems"]:
                print(f"  FAIL: {problem}", file=sys.stderr)
        if code == 0:
            print("service smoke checks passed", file=sys.stderr)
        return code

    import asyncio

    from repro.service.server import ServiceServer

    async def serve() -> None:
        # The engine runs on the process-wide store, which holds what
        # REPRO_RESULT_STORE names and is saved when the service stops.
        service = SimulationService(config=config)
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            "(endpoints: /simulate /sweep /healthz /metrics)",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)
    return 0


def _run_explore(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``explore`` subcommand: adaptive Pareto design-space studies."""
    from repro.explore import (
        LocalBackend,
        ServiceBackend,
        load_spec,
        preset_spec,
        resume_study,
        run_study,
        study_report,
        summarize,
    )

    if args.study and args.preset:
        parser.error("--study and --preset are mutually exclusive")
    if args.check:
        from repro.explore.check import run_check

        spec = None
        try:
            if args.study:
                spec = load_spec(args.study)
            elif args.preset:
                spec = preset_spec(args.preset)
        except ValueError as exc:
            parser.error(str(exc))
        code, summary = run_check(
            spec=spec,
            quick=args.quick,
            out_dir=args.out,
            report_out=args.report_out,
        )
        if code == 0:
            print("explore self-checks passed", file=sys.stderr)
        else:
            for problem in summary["problems"]:
                print(f"FAIL: {problem}", file=sys.stderr)
        return code

    backend = (
        ServiceBackend(
            host=args.host, port=args.port,
            max_in_flight=args.max_in_flight,
            timeout=300.0, max_attempts=10, jitter_seed=args.seed,
        )
        if args.backend == "service"
        else LocalBackend()
    )
    try:
        if args.resume:
            result = resume_study(
                args.resume, backend, budget=args.budget,
                progress=lambda line: print(line, file=sys.stderr),
            )
        else:
            spec = (
                load_spec(args.study) if args.study
                else preset_spec(args.preset or "quick")
            )
            if args.budget is not None:
                spec = spec.with_(budget=args.budget)
            if args.seed is not None:
                spec = spec.with_(seed=args.seed)
            result = run_study(
                spec, backend, args.out, budget=None,
                progress=lambda line: print(line, file=sys.stderr),
            )
    except ValueError as exc:
        parser.error(str(exc))
    finally:
        backend.close()
    _save_store()
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(study_report(result))
        print(f"wrote {args.report_out}", file=sys.stderr)
    if args.json:
        json.dump(summarize(result), sys.stdout, indent=2)
        print()
        return 0
    print(study_report(result))
    for record in result.failed_points:
        print(
            f"warning: design point {record['params']} failed: "
            f"{record['reason']}",
            file=sys.stderr,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the DESC (MICRO 2013) reproduction.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available figures")

    run_parser = sub.add_parser("run", help="run one figure experiment")
    run_parser.add_argument("figure", help="figure name, e.g. fig16")
    run_parser.add_argument("--sample-blocks", type=_positive_int,
                            default=3000,
                            help="value-sample size per application")
    run_parser.add_argument("--json", action="store_true",
                            help="emit JSON instead of pretty text")
    run_parser.add_argument("--profile", action="store_true",
                            help="print per-stage wall-clock timings "
                                 "to stderr after the run")

    all_parser = sub.add_parser("all", help="run every figure experiment")
    all_parser.add_argument("--sample-blocks", type=_positive_int,
                            default=3000)
    all_parser.add_argument("--json", metavar="PATH", default=None,
                            help="write all results to a JSON file")
    all_parser.add_argument("--profile", action="store_true",
                            help="print per-stage wall-clock timings "
                                 "to stderr after the run")

    lint_parser = sub.add_parser(
        "lint",
        help="run the repo-specific static-analysis pass",
        description="Enforce the reproduction's determinism, "
                    "cost-accounting, engine-tier parity, async-safety, "
                    "and FFI-contract invariants (rules R001-R008); see "
                    "docs/static_analysis.md. "
                    "Exits 1 on any finding not in the baseline.",
    )
    add_lint_arguments(lint_parser)

    stats_parser = sub.add_parser(
        "cache-stats",
        help="show result-store hit/miss/size statistics",
    )
    stats_parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="persisted store to inspect (default: the in-process store, "
             "or $REPRO_RESULT_STORE when set)",
    )

    validate_parser = sub.add_parser(
        "validate", help="check headline results against the paper"
    )
    validate_parser.add_argument("--sample-blocks", type=_positive_int,
                                 default=2500)

    faults_parser = sub.add_parser(
        "faults",
        help="sweep link-level fault injection (rate x resync x ECC)",
        description="Drive seeded wire faults through the cycle-accurate "
                    "DESC link and report residual error rates, "
                    "detected-vs-silent corruption, recovery latency, and "
                    "the energy overhead of the resync protocol.",
    )
    faults_parser.add_argument("--quick", action="store_true",
                               help="small geometry and grid (CI smoke mode)")
    faults_parser.add_argument("--check", action="store_true",
                               help="run the fixed-seed smoke assertions "
                                    "(zero silent corruption with ECC on, "
                                    "corruption visible with ECC off); "
                                    "exit 1 on violation")
    faults_parser.add_argument("--seed", type=int, default=0,
                               help="base seed of the fault and data streams")
    faults_parser.add_argument("--json", action="store_true",
                               help="emit JSON instead of pretty text")
    faults_parser.add_argument("--workers", type=_positive_int, default=1,
                               help="process-pool width for the campaign "
                                    "grid (1 = serial; results are "
                                    "identical)")

    sweep_parser = sub.add_parser(
        "sweep",
        help="sweep SystemConfig fields over the simulator",
        description="Simulate every combination of the given config "
                    "fields and report suite-geomean metrics per point. "
                    "Failed jobs degrade their point with a warning "
                    "instead of aborting the sweep.",
    )
    sweep_parser.add_argument("--scheme", default="desc-zero",
                              help="transfer scheme: desc, desc-zero, "
                                   "desc-last-value, or binary")
    sweep_parser.add_argument("--field", action="append", default=[],
                              metavar="NAME=V1,V2,...", dest="fields",
                              help="config field and its values (repeatable), "
                                   "e.g. --field num_banks=2,8,32")
    sweep_parser.add_argument("--sample-blocks", type=_positive_int,
                              default=2000,
                              help="value-sample size per application")
    sweep_parser.add_argument("--workers", type=_positive_int, default=1,
                              help="process-pool width for the grid "
                                   "(1 = serial; results are identical)")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit JSON instead of pretty text")

    serve_parser = sub.add_parser(
        "serve",
        help="run the async simulation service (HTTP+JSON)",
        description="Serve simulation and sweep requests over a local "
                    "HTTP+JSON API with request coalescing, result-store "
                    "read-through, adaptive batching, and explicit "
                    "backpressure; see docs/service.md.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=_port, default=8765,
                              help="TCP port (0 = ephemeral)")
    serve_parser.add_argument("--max-queue", type=int, default=128,
                              help="pending jobs held before rejecting "
                                   "with 429 backpressure")
    serve_parser.add_argument("--max-batch", type=int, default=16,
                              help="largest job batch per engine call")
    serve_parser.add_argument("--check", action="store_true",
                              help="run the end-to-end smoke check "
                                   "(concurrent clients, coalescing, "
                                   "byte-identical results); exit 1 on "
                                   "violation")
    serve_parser.add_argument("--quick", action="store_true",
                              help="smaller value samples for the check "
                                   "(CI smoke mode)")
    serve_parser.add_argument("--json", action="store_true",
                              help="emit the check summary as JSON")
    serve_parser.add_argument("--metrics-out", metavar="PATH", default=None,
                              help="write the check's metrics snapshot "
                                   "to a JSON file (CI artifact)")
    serve_parser.add_argument("--expect-warm", action="store_true",
                              help="with --check and $REPRO_RESULT_STORE: "
                                   "fail unless every request was answered "
                                   "from the saved store (warm-restart "
                                   "proof)")

    explore_parser = sub.add_parser(
        "explore",
        help="adaptive Pareto exploration of the design space",
        description="Search chunk size, skip policy, wire count, resync "
                    "interval, scheme, fault rate, and engine geometry "
                    "for energy x latency x resilience Pareto frontiers "
                    "without enumerating the full grid: a seeded "
                    "low-discrepancy coarse pass, then refinement rounds "
                    "bisecting axes around frontier points, under a fixed "
                    "evaluation budget.  Studies journal crash-safely and "
                    "resume byte-identically; see docs/explore.md.",
    )
    explore_parser.add_argument("--study", metavar="FILE", default=None,
                                help="study spec JSON file (see "
                                     "docs/explore.md for the format)")
    explore_parser.add_argument("--preset", default=None,
                                help="built-in study: quick or frontier "
                                     "(default quick)")
    explore_parser.add_argument("--budget", type=int, default=None,
                                help="override the spec's evaluation budget")
    explore_parser.add_argument("--backend",
                                choices=("local", "service"),
                                default="local",
                                help="evaluate in-process (local) or "
                                     "through a running 'repro serve' "
                                     "instance (service)")
    explore_parser.add_argument("--host", default="127.0.0.1",
                                help="service host for --backend service")
    explore_parser.add_argument("--port", type=_port, default=8765,
                                help="service port for --backend service")
    explore_parser.add_argument("--max-in-flight", type=int, default=8,
                                help="concurrent service requests per "
                                     "batch (--backend service)")
    explore_parser.add_argument("--out", metavar="DIR", default=None,
                                help="journal directory (crash-safe; "
                                     "resumable with --resume DIR)")
    explore_parser.add_argument("--resume", metavar="DIR", default=None,
                                help="resume an interrupted study from "
                                     "its journal directory")
    explore_parser.add_argument("--seed", type=int, default=None,
                                help="override the spec's master seed")
    explore_parser.add_argument("--json", action="store_true",
                                help="emit the study summary as JSON")
    explore_parser.add_argument("--report-out", metavar="PATH", default=None,
                                help="write the Markdown study report "
                                     "to a file (CI artifact)")
    explore_parser.add_argument("--check", action="store_true",
                                help="run the explore self-checks (resume "
                                     "byte-parity, service/local backend "
                                     "parity, frontier vs random baseline); "
                                     "exit 1 on violation")
    explore_parser.add_argument("--quick", action="store_true",
                                help="shrink the check's budget and value "
                                     "samples (CI smoke mode)")

    args = parser.parse_args(argv)

    if args.command == "cache-stats":
        return _cache_stats(args.store)

    if args.command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)

    if getattr(args, "workers", 1) > 1:
        from repro.sim.engine import fork_available

        if not fork_available():
            print("note: platform cannot fork; running serially",
                  file=sys.stderr)

    if getattr(args, "profile", False):
        from repro.util.profiling import PROFILER

        PROFILER.enable()

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "sweep":
        return _run_sweep(args, sweep_parser)

    if args.command == "explore":
        return _run_explore(args, explore_parser)

    figures = _figures()

    if args.command == "list":
        for name, (description, _) in figures.items():
            print(f"  {name}: {description}")
        return 0

    if args.command == "run":
        if args.figure not in figures:
            run_parser.error(
                f"unknown figure {args.figure!r}; see 'python -m repro list'"
            )
        description, runner = figures[args.figure]
        result = runner(args)
        _save_store()
        _print_profile(args)
        if args.json:
            json.dump(result, sys.stdout, indent=2, default=str)
            print()
        else:
            print(f"=== {args.figure}: {description} ===")
            _pretty(result)
        return 0

    if args.command == "validate":
        from repro.validation import run_validation

        results = run_validation(args.sample_blocks)
        print(f"{'check':42s} {'paper':>9s} {'measured':>9s} {'band':>17s}  verdict")
        failures = 0
        for r in results:
            verdict = "PASS" if r.passed else "FAIL"
            failures += not r.passed
            band = f"[{r.low:g}, {r.high:g}]"
            print(f"{r.name:42s} {r.paper:9g} {r.measured:9.3f} {band:>17s}  {verdict}")
        print(f"\n{len(results) - failures}/{len(results)} checks passed")
        return 1 if failures else 0

    # command == "all"
    if args.json:
        # Fail before the figures run; appending truncates nothing.
        _open_output(args.json, "a", all_parser).close()
    results = {}
    for name, (description, runner) in figures.items():
        print(f"running {name}: {description} ...", file=sys.stderr)
        results[name] = runner(args)
    _save_store()
    _print_profile(args)
    if args.json:
        with _open_output(args.json, "w", all_parser) as handle:
            json.dump(results, handle, indent=2, default=str)
        print(f"wrote {args.json}", file=sys.stderr)
    else:
        _pretty(results)
    return 0
