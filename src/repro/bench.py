"""Tracked performance benchmarks: hot kernels and end-to-end runs.

``python -m repro bench`` measures the performance-critical paths and
writes a ``BENCH_<rev>.json`` snapshot so kernel regressions show up in
review diffs rather than in users' wall clocks.  Three tiers:

* **kernels** — throughput of the shared batched primitives
  (:mod:`repro.kernels.batched`) and trace generation.
* **multicore** — the trace-execution engines (the reference event
  loop, plus the native kernel when it builds) on the *parallel16*
  workload: every parallel-suite application's memory trace at the
  default :class:`~repro.cpu.multicore.MulticoreConfig`, one fixed
  reference count and seed per profile.  Reported per engine with
  speedups relative to the reference event loop.
* **end_to_end** — the fig20 execution-time experiment against a cold
  result store, reported both as wall seconds and as a pipeline rate
  (blocks/sec across all scheme x app jobs) so quick and full runs
  stay comparable.
* **service** — the serving pipeline (:mod:`repro.service`) under
  duplicate-heavy concurrent traffic: request latency percentiles and
  coalesce/store hit rates straight from the service's own
  :class:`~repro.service.metrics.MetricsRegistry`.

Timings are best-of-N wall clock (N=1 with ``--quick``, the CI smoke
mode).  The report is plain JSON, stable-keyed for diffing.

``python -m repro bench --against BENCH_<rev>.json`` additionally
compares the fresh run's throughput metrics against a committed
snapshot and exits non-zero when any rate regresses past the
``--tolerance`` band (:func:`compare_reports`).
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.util.version import package_version
from repro.workloads.generator import memory_trace
from repro.workloads.profiles import PARALLEL_PROFILES, profile

__all__ = [
    "run_benchmarks",
    "write_report",
    "parallel16_traces",
    "compare_reports",
    "resolve_baseline",
    "format_comparison",
]

#: References simulated per parallel-suite profile in the multicore tier.
PARALLEL16_REFERENCES = 40_000
#: Seed used for every parallel16 trace.
PARALLEL16_SEED = 0


def _best_of(repeats: int, fn) -> float:
    return min(fn() for _ in range(max(1, repeats)))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- tier 1: kernel micro-benchmarks -----------------------------------


def _bench_kernels(quick: bool) -> dict:
    from repro.kernels import batched

    # Quick mode shrinks the arrays but keeps a few repeats: a single
    # cold measurement is dominated by first-touch/allocation overhead
    # and reads tens of percent below the true rate, which would make
    # the --against gate meaningless for quick-vs-full comparisons.
    n = 500_000 if quick else 2_000_000
    repeats = 3 if quick else 5
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**62, size=n, dtype=np.int64)
    cycles = np.sort(rng.integers(0, 4 * n, size=n))
    levels = rng.integers(0, 16, size=n)

    results = {}

    def throughput(name: str, fn) -> None:
        seconds = _best_of(repeats, lambda: _timed(fn))
        results[name] = {
            "elements": n,
            "seconds": round(seconds, 6),
            "elements_per_sec": round(n / seconds),
        }

    throughput("popcount", lambda: batched.popcount(words))
    throughput("level_transitions", lambda: batched.level_transitions(levels))
    throughput("strobe_flips", lambda: batched.strobe_flips(cycles, 0))
    throughput("group_rank", lambda: batched.group_rank(levels))

    gen_n = 50_000 if quick else 200_000
    app = profile("Ocean")
    gen_seconds = _best_of(
        repeats, lambda: _timed(lambda: memory_trace(app, gen_n, seed=1))
    )
    results["memory_trace"] = {
        "elements": gen_n,
        "seconds": round(gen_seconds, 6),
        "elements_per_sec": round(gen_n / gen_seconds),
    }
    return results


# -- tier 2: multicore engines on parallel16 ---------------------------


def parallel16_traces(num_references: int | None = None) -> list:
    """The benchmark workload: one trace per parallel-suite profile."""
    n = PARALLEL16_REFERENCES if num_references is None else num_references
    return [
        memory_trace(app, n, seed=PARALLEL16_SEED)
        for app in PARALLEL_PROFILES
    ]


def _bench_multicore(quick: bool) -> dict:
    from repro.cpu.multicore import MulticoreSimulator
    from repro.kernels.native import native_available

    # Longer quick traces + a second repeat: the native engine finishes
    # a 4k-reference trace in microseconds, so per-trace setup would
    # otherwise swamp the rate (see the note in ``_bench_kernels``).
    n = 20_000 if quick else PARALLEL16_REFERENCES
    apps = PARALLEL_PROFILES[:4] if quick else PARALLEL_PROFILES
    traces = [memory_trace(app, n, seed=PARALLEL16_SEED) for app in apps]
    repeats = 2 if quick else 3
    engines = ["reference"]
    if native_available():
        engines.append("native")

    def run_all(engine: str) -> float:
        def once() -> float:
            start = time.perf_counter()
            for trace in traces:
                MulticoreSimulator(engine=engine).run(trace)
            return time.perf_counter() - start

        return _best_of(repeats, once)

    timings = {engine: run_all(engine) for engine in engines}
    total_refs = n * len(traces)
    ref_seconds = timings["reference"]
    engine_rows = {}
    for engine, seconds in timings.items():
        engine_rows[engine] = {
            "seconds": round(seconds, 4),
            "references_per_sec": round(total_refs / seconds),
            "speedup_vs_reference": round(ref_seconds / seconds, 2),
        }
    return {
        "workload": "parallel16" if not quick else "parallel16-quick",
        "profiles": [app.name for app in apps],
        "references_per_profile": n,
        "seed": PARALLEL16_SEED,
        "best_of": repeats,
        "engines": engine_rows,
    }


# -- tier 3: end-to-end figure runtime ---------------------------------


def _bench_end_to_end(quick: bool) -> dict:
    from repro.experiments import fig20_exec_time
    from repro.experiments.common import DEFAULT_SCHEMES
    from repro.sim.config import SystemConfig
    from repro.sim.store import RESULT_STORE
    from repro.workloads.suites import PARALLEL_SUITE

    sample_blocks = 300 if quick else 1500
    system = SystemConfig(sample_blocks=sample_blocks)

    def once() -> float:
        RESULT_STORE.clear()  # cold store: measure real work, not hits
        return _timed(lambda: fig20_exec_time.run(system))

    seconds = _best_of(2 if quick else 3, once)
    RESULT_STORE.clear()
    # Every unique (scheme, app) job streams ``sample_blocks`` blocks
    # through the full pipeline (generate -> encode -> queueing ->
    # energy), so blocks/sec is the tracked end-to-end rate: it stays
    # comparable between quick and full runs where raw seconds do not.
    jobs = len(DEFAULT_SCHEMES) * len(PARALLEL_SUITE)
    return {
        "experiment": "fig20",
        "sample_blocks": sample_blocks,
        "jobs": jobs,
        "seconds": round(seconds, 4),
        "blocks_per_sec": round(sample_blocks * jobs / seconds),
    }


# -- tier 4: the serving layer under live traffic ----------------------


def _bench_service(quick: bool) -> dict:
    import asyncio

    from repro.experiments.common import DEFAULT_SCHEMES
    from repro.service.pipeline import SimulationService
    from repro.sim.config import SystemConfig
    from repro.sim.engine import SimJob, StagedEngine
    from repro.sim.store import ResultStore

    sample_blocks = 150 if quick else 600
    rounds = 3 if quick else 6
    system = SystemConfig(sample_blocks=sample_blocks)
    jobs = [
        SimJob.of(app, scheme, system)
        for app in ("Ocean", "CG", "mcf")
        for _, scheme in DEFAULT_SCHEMES
    ]

    async def drive() -> dict:
        async with SimulationService(
            engine=StagedEngine(ResultStore())
        ) as service:
            # Duplicate-heavy: every config requested ``rounds`` times
            # concurrently, so coalescing and the read-through store
            # both carry real load.
            await asyncio.gather(
                *(
                    service.submit(job, wait=True)
                    for _ in range(rounds)
                    for job in jobs
                )
            )
            return service.snapshot()

    snapshot = asyncio.run(drive())
    latency = snapshot["histograms"]["service_latency_s"]
    derived = snapshot["derived"]
    counters = snapshot["counters"]
    return {
        "unique_configs": len(jobs),
        "rounds": rounds,
        "requests": len(jobs) * rounds,
        "sample_blocks": sample_blocks,
        "latency_s": {
            "mean": round(latency["mean"], 6),
            "p50": round(latency["p50"], 6),
            "p95": round(latency["p95"], 6),
        },
        "coalesce_hit_rate": round(derived["coalesce_hit_rate"], 4),
        "store_hit_rate": round(derived["store_hit_rate"], 4),
        "combined_hit_rate": round(derived["combined_hit_rate"], 4),
        "batches": counters.get("batches_total", 0),
        "engine_jobs": counters.get("engine_jobs_total", 0),
    }


# -- report assembly ---------------------------------------------------


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_benchmarks(quick: bool = False) -> dict:
    """Run all benchmark tiers; returns the JSON-ready report."""
    from repro.kernels.native import load_native_kernel, native_available

    load_native_kernel()  # compile outside the timed regions
    report = {
        "schema": 1,
        "revision": _git_revision(),
        "version": package_version(),
        # Report metadata, never a simulation input: the one legitimate
        # wall-clock read in the package.
        "generated": datetime.datetime.now(  # lint-ok: R001
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "native_kernel": native_available(),
        "kernels": _bench_kernels(quick),
        "multicore": _bench_multicore(quick),
        "end_to_end": _bench_end_to_end(quick),
        "service": _bench_service(quick),
    }
    return report


def write_report(report: dict, out: str | None = None) -> Path:
    """Write the report to ``out`` or ``BENCH_<revision>.json``."""
    path = Path(out) if out else Path(f"BENCH_{report['revision']}.json")
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# -- baseline comparison -----------------------------------------------


def _rate_metrics(report: dict) -> dict[str, float]:
    """Flatten a report to its throughput metrics.

    Only *rates* are compared across reports: unlike raw seconds they
    stay meaningful when one side ran in ``--quick`` mode (smaller
    element counts) or on a differently loaded machine.
    """
    rates: dict[str, float] = {}
    for name, row in report.get("kernels", {}).items():
        rate = row.get("elements_per_sec")
        if rate:
            rates[f"kernels.{name}"] = float(rate)
    engines = report.get("multicore", {}).get("engines", {})
    for engine, row in engines.items():
        rate = row.get("references_per_sec")
        if rate:
            rates[f"multicore.{engine}"] = float(rate)
    e2e = report.get("end_to_end", {})
    rate = e2e.get("blocks_per_sec")
    if rate:
        rates[f"end_to_end.{e2e.get('experiment', 'fig20')}"] = float(rate)
    return rates


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.5
) -> tuple[list[dict], list[str]]:
    """Per-metric throughput deltas of ``current`` against ``baseline``.

    Returns ``(rows, regressions)``: one row per metric present in both
    reports (``metric``, ``baseline``, ``current``, ``ratio``), and the
    names of metrics whose current rate fell below ``baseline * (1 -
    tolerance)``.  Improvements never fail; ``tolerance`` only guards
    the downside.  The default is deliberately loose — shared CI boxes
    jitter by tens of percent, and the committed ``BENCH_<rev>.json``
    snapshots remain the precise record.
    """
    base_rates = _rate_metrics(baseline)
    cur_rates = _rate_metrics(current)
    rows: list[dict] = []
    regressions: list[str] = []
    for metric, base in base_rates.items():
        cur = cur_rates.get(metric)
        if cur is None:
            continue
        ratio = cur / base
        rows.append({
            "metric": metric,
            "baseline": base,
            "current": cur,
            "ratio": ratio,
        })
        if cur < base * (1.0 - tolerance):
            regressions.append(metric)
    return rows, regressions


def resolve_baseline(path: str) -> Path:
    """Resolve ``--against`` to a baseline report file.

    A file path is used as-is.  A directory is scanned for committed
    ``BENCH_*.json`` snapshots and the one with the newest ``generated``
    stamp wins — checkouts do not preserve mtimes, so the stamp inside
    the report is the only reliable ordering.
    """
    p = Path(path)
    if p.is_file():
        return p
    if p.is_dir():
        candidates = []
        for snap in sorted(p.glob("BENCH_*.json")):
            try:
                generated = json.loads(snap.read_text()).get("generated", "")
            except (OSError, json.JSONDecodeError):
                continue
            candidates.append((generated, snap))
        if candidates:
            return max(candidates)[1]
        raise FileNotFoundError(
            f"no readable BENCH_*.json snapshot under {path!r}"
        )
    raise FileNotFoundError(f"baseline {path!r} does not exist")


def format_comparison(rows: list[dict], regressions: list[str]) -> str:
    """Human-readable delta table for the CLI."""
    lines = [
        f"{'metric':34s} {'baseline':>14s} {'current':>14s} {'delta':>8s}"
    ]
    failed = set(regressions)
    for row in rows:
        delta = (row["ratio"] - 1.0) * 100.0
        flag = "  REGRESSED" if row["metric"] in failed else ""
        lines.append(
            f"{row['metric']:34s} {row['baseline']:>14,.0f} "
            f"{row['current']:>14,.0f} {delta:>+7.1f}%{flag}"
        )
    if not rows:
        lines.append("(no comparable throughput metrics)")
    return "\n".join(lines)
