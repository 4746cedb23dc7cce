"""The three workloads, each timed (``trace=0``) or traced (``trace=1``).

``figures`` and ``faults`` are batch workloads: every operation is a
fresh ``python -m repro`` process.  A *cold* run starts from an empty
result store (the CLI default) and is the miss path; a *warm* run
re-runs the same command against a result store file
(``REPRO_RESULT_STORE``) that already holds every answer, the hit path
a researcher takes when re-running after a reporting change.  ``serve``
starts a fresh ``repro serve`` per round and drives it with the seeded
traffic of :mod:`traffic` over two connections.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks
import loadgen
import spans
import traffic
from harness import Checkout, LineWatch, median, spawn, stop, wait

__all__ = ["END_TO_END", "PER_LAYER", "Result", "run_workload"]

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "req/s",
    "hit_p50_ms": "ms",
    "hit_p90_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
}

FIGURE_NAMES = (
    "fig01", "fig02", "fig03", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "fig25", "fig26", "fig27", "fig28", "fig29", "fig30",
)

FIGURE_SPANS = tuple(f"experiments.{name}_s" for name in FIGURE_NAMES)

#: Layer self-time metrics (seconds); with ``unattributed_s`` they add
#: up to ``trace.wall_s``.
SELF_TIMES = (
    "cli.import_s",
    "kernels.native_load_s",
    "experiments.self_s",
    "workloads.sample_s",
    "encoding.transfer_s",
    "kernels.native_s",
    "ecc.encode_s",
    "ecc.decode_s",
    "energy.design_s",
    "sim.timing_s",
    "sim.energy_s",
    "sim.engine_s",
    "service.self_s",
    "faults.campaign_s",
    "faults.inject_s",
    "core.send_s",
)

#: Per-layer metrics: name -> unit.  Every workload reports all of them;
#: a layer the workload never enters reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "kernels.native_load_s": "s",
    **{name: "s" for name in FIGURE_SPANS},
    "experiments.self_s": "s",
    "workloads.sample_calls": "count",
    "workloads.sample_s": "s",
    "encoding.transfer_calls": "count",
    "encoding.transfer_s": "s",
    "encoding.transfer_s.secded": "s",
    "encoding.transfer_s.desc": "s",
    "encoding.transfer_s.baseline": "s",
    "kernels.native_calls": "count",
    "kernels.native_s": "s",
    "kernels.fallbacks": "count",
    "ecc.encode_s": "s",
    "ecc.decode_calls": "count",
    "ecc.decode_s": "s",
    "energy.design_calls": "count",
    "energy.design_s": "s",
    "sim.timing_s": "s",
    "sim.energy_s": "s",
    "sim.store_hits": "count",
    "sim.store_misses": "count",
    "sim.store_hit_ratio": "ratio",
    "sim.engine_ms": "ms",
    "sim.engine_s": "s",
    "service.parse_ms": "ms",
    "service.serialize_ms": "ms",
    "service.http_ms": "ms",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.coalesced": "count",
    "service.hits": "count",
    "service.misses": "count",
    "service.errors": "count",
    "service.hit_p99_ms": "ms",
    "service.miss_p99_ms": "ms",
    "service.self_s": "s",
    "faults.campaigns": "count",
    "faults.campaign_s": "s",
    "faults.inject_s": "s",
    "faults.failed_points": "count",
    "core.blocks": "count",
    "core.send_s": "s",
    "core.cycles": "count",
    "core.cycles_per_s": "1/s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 9
#: Requests per connection in one ``serve`` round.
PER_CONNECTION = 2000
_PORT = re.compile(r"listening on http://[^:\s]+:(\d+)")


@dataclass
class Result:
    """What one workload run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# -- batch workloads -------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    name: str
    units: int  # operations (figures or campaign points) per process
    probe: str  # python -c code: the command's imports, then "ready"
    args: tuple[str, ...]  # the command; "{out}" and "{seed}" are filled in
    #: Wrong operations in one output: ``(text, seed, checkout) -> int``.
    wrong: Callable[[str | None, int, Checkout], int]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [arg.format(out=out, seed=seed) for arg in self.args]

    def output(self, out: Path, stdout: Path) -> Path:
        """Where the command writes its JSON: ``{out}`` if named, else stdout."""
        return out if "{out}" in self.args else stdout


BATCHES = {
    "figures": Batch(
        "figures", len(FIGURE_NAMES),
        "import repro.cli, repro.experiments\n"
        "from repro.kernels.native import load_native_kernel\n"
        "load_native_kernel()\n"
        "print('ready', flush=True)\n",
        ("all", "--json", "{out}"),
        lambda text, seed, co: checks.check_figures(text, co.expected_figures),
    ),
    "faults": Batch(
        "faults", checks.FAULT_POINTS,
        "import repro.cli, repro.experiments.fault_sweep\n"
        "print('ready', flush=True)\n",
        ("faults", "--json", "--seed", "{seed}"),
        lambda text, seed, co: checks.check_faults(text, seed),
    ),
}


def _setup_samples(co: Checkout, code: str, result: Result) -> list[float]:
    """Spawn-to-ready seconds of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc, started = spawn([sys.executable, "-c", code], co.env(), stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.close()
        ended = wait(proc, started)
        failed = ended.code != 0 or not line.startswith(b"ready")
        result.add(1, failed)
        if failed:
            result.notes.append(f"set-up probe failed (exit {ended.code})")
            continue
        samples.append(ready - started)
    return samples


def _invoke(co: Checkout, batch: Batch, seed: int, env, spans_path=None):
    """One process of a batch workload: ``(Exit, output text, spawn time)``."""
    out = co.work / f"{batch.name}-out.json"
    out.unlink(missing_ok=True)
    args = batch.argv(seed, out)
    argv = co.launcher(spans_path, *args) if spans_path else co.repro(*args)
    stdout_path = co.work / f"{batch.name}-stdout.txt"
    with open(stdout_path, "wb") as stdout, open(co.work / f"{batch.name}-stderr.txt", "wb") as err:
        proc, started = spawn(argv, env, stdout=stdout, stderr=err, cwd=co.root)
        ended = wait(proc, started)
    text_path = batch.output(out, stdout_path)
    text = text_path.read_text() if text_path.exists() else None
    return ended, text, started


def _check(co: Checkout, batch: Batch, ended, text, seed, result: Result) -> bool:
    wrong = batch.units if ended.code != 0 else batch.wrong(text, seed, co)
    result.add(batch.units, wrong)
    if wrong:
        result.notes.append(f"{batch.name}: {wrong} wrong operation(s), exit {ended.code}")
    return wrong == 0


def _warm_env(co: Checkout, batch: Batch, seed: int, result: Result):
    """Fill a result store file with one untimed run; the warm-run env."""
    store = co.work / f"{batch.name}-store.pkl"
    store.unlink(missing_ok=True)
    env = co.env(REPRO_RESULT_STORE=str(store))
    ended, text, _ = _invoke(co, batch, seed, env)
    _check(co, batch, ended, text, seed, result)
    return env


def _batch_timed(co: Checkout, batch: Batch, seed: int, seconds: float) -> Result:
    result = Result(batch.name)
    setups = _setup_samples(co, batch.probe, result)
    warm_env = _warm_env(co, batch, seed, result)
    cold, warm, rss = [], [], []
    begin = time.perf_counter()
    while True:
        ended, text, _ = _invoke(co, batch, seed, co.env())
        ok = _check(co, batch, ended, text, seed, result)
        cold.append(ended.wall_s if ok else float("inf"))
        rss.append(ended.rss_mb)
        ended, text, _ = _invoke(co, batch, seed, warm_env)
        ok = _check(co, batch, ended, text, seed, result)
        warm.append(ended.wall_s if ok else float("inf"))
        if time.perf_counter() - begin >= seconds:
            break
    wall = median(cold)
    result.samples = {"setup_s": setups, "cold_s": cold, "warm_s": warm, "rss_mb": rss}
    result.metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "peak_rss_mb": median(rss),
        "throughput_rps": batch.units / wall,
        "hit_p50_ms": spans.percentile(warm, 0.5) * 1e3,
        "hit_p90_ms": spans.percentile(warm, 0.9) * 1e3,
        "miss_p50_ms": spans.percentile(cold, 0.5) * 1e3,
        "miss_p90_ms": spans.percentile(cold, 0.9) * 1e3,
    }
    result.counts = {
        "setup_s": len(setups), "wall_s": len(cold), "peak_rss_mb": len(rss),
        "throughput_rps": len(cold), "hit_p50_ms": len(warm), "hit_p90_ms": len(warm),
        "miss_p50_ms": len(cold), "miss_p90_ms": len(cold),
    }
    return result


# -- per-layer arithmetic ---------------------------------------------------


#: Spans that mostly wait on other spans: the client round trip and the
#: coroutine awaiting its result.
WAITING = frozenset({"service.http_s", "service.submit_s"})


def layer_metrics(trace: dict, begin: float, end: float) -> dict[str, float]:
    """Per-layer metrics from one traced process's span file.

    ``begin``/``end`` bound the traced wall time; every span name's
    attributed self time, plus the unattributed remainder, adds up to
    ``end - begin``.
    """
    records = trace["spans"]
    counters = defaultdict(float, trace.get("counters", {}))
    events = trace.get("events", {})
    totals, unattributed = spans.attribute(records, begin, end, WAITING)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for name, start, stop_, parent, rid in records:
        calls[name] += 1
        inclusive[name] += stop_ - start
    out = {name: totals.get(name, 0.0) for name in PER_LAYER}
    # A figure's run() is reported whole: its work is charged to the
    # compute layers it calls, so its self time would show nothing.
    out["experiments.self_s"] = sum(totals.get(name, 0.0) for name in FIGURE_SPANS)
    for name in FIGURE_SPANS:
        out[name] = inclusive[name]
    transfer = [f"encoding.transfer_s.{k}" for k in ("secded", "desc", "baseline")]
    out["encoding.transfer_s"] = sum(totals.get(k, 0.0) for k in transfer)
    out["encoding.transfer_calls"] = sum(calls[k] for k in transfer)
    out["service.self_s"] = sum(v for k, v in totals.items() if k.startswith("service."))
    out["workloads.sample_calls"] = calls["workloads.sample_s"]
    out["kernels.native_calls"] = calls["kernels.native_s"]
    out["kernels.fallbacks"] = counters["kernels.fallbacks"]
    out["ecc.decode_calls"] = calls["ecc.decode_s"]
    out["energy.design_calls"] = calls["energy.design_s"]
    hits, misses = counters["sim.store_hits"], counters["sim.store_misses"]
    out["sim.store_hits"], out["sim.store_misses"] = hits, misses
    out["sim.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    jobs = counters["sim.engine_jobs"]
    out["sim.engine_ms"] = inclusive["sim.engine_s"] / jobs * 1e3 if jobs else 0.0
    out["faults.campaigns"] = calls["faults.campaign_s"]
    out["core.blocks"] = calls["core.send_s"]
    out["core.cycles"] = counters["core.cycles"]
    send = inclusive["core.send_s"]
    out["core.cycles_per_s"] = counters["core.cycles"] / send if send else 0.0
    batches = events.get("service.batch", [])
    out["service.batches"] = len(batches)
    out["service.batch_size_mean"] = sum(batches) / len(batches) if batches else 0.0
    waits = [w for _, w in events.get("service.queue_wait", [])]
    out["service.queue_wait_ms"] = _median_ms(waits)
    out["trace.wall_s"] = end - begin
    out["unattributed_s"] = unattributed
    return out


def _median_ms(values) -> float:
    return median(values) * 1e3 if values else 0.0


def _batch_traced(co: Checkout, batch: Batch, seed: int, seconds: float) -> Result:
    result = Result(batch.name)
    pairs = []
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain, text, _ = _invoke(co, batch, seed, co.env())
        _check(co, batch, plain, text, seed, result)
        spans_path = co.work / f"{batch.name}-spans.json"
        spans_path.unlink(missing_ok=True)
        traced, text, started = _invoke(co, batch, seed, co.env(), spans_path)
        _check(co, batch, traced, text, seed, result)
        metrics = layer_metrics(spans.load(spans_path), started, started + traced.wall_s)
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        if batch.name == "faults" and text is not None:
            metrics["faults.failed_points"] = json.loads(text).get("failed", 0)
        pairs.append(metrics)
        now = time.perf_counter()
        if now - begin + (now - pair_start) > seconds:
            break
    return _median_pair(result, pairs)


def _median_pair(result: Result, pairs: list[dict]) -> Result:
    """Report the traced pair with the median traced wall time.

    One whole pair rather than per-metric medians, so its self times
    and remainder still add up to its ``trace.wall_s``.
    """
    if pairs:
        result.metrics = sorted(pairs, key=lambda p: p["trace.wall_s"])[(len(pairs) - 1) // 2]
    result.counts = {name: len(pairs) for name in PER_LAYER}
    return result


# -- serve ------------------------------------------------------------------


@dataclass
class Round:
    started: float
    setup_s: float
    wall_s: float
    rss_mb: float
    samples: list
    begin: float
    end: float
    exit_code: int
    snapshot: dict | None = None


def _serve_round(co: Checkout, load: traffic.Traffic, spans_path=None) -> Round | None:
    args = ("serve", "--port", "0")
    argv = co.launcher(spans_path, *args) if spans_path else co.repro(*args)
    proc, started = spawn(argv, co.env(), stderr=subprocess.PIPE, cwd=co.root)
    watch = LineWatch(proc.stderr, "listening on http://")
    try:
        match = _PORT.search(watch.line) if watch.found.wait(60) else None
        if match is None:
            return None
        port = int(match.group(1))
        if _get(port, "/healthz") is None:
            return None
        ready = time.perf_counter()
        samples, begin, end = loadgen.run_traffic(port, load)
        snapshot = json.loads(_get(port, "/metrics") or "null") if spans_path else None
    finally:
        ended = stop(proc, started)
        watch.join()
    return Round(
        started, ready - started, ended.wall_s, ended.rss_mb,
        samples, begin, end, ended.code, snapshot,
    )


def _get(port: int, path: str) -> bytes | None:
    """The body of a 200 answer to ``GET path``, or ``None``."""
    try:
        status, body = asyncio.run(loadgen.fetch(port, "GET", path))
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
        return None
    return body if status == 200 else None


def _account(load: traffic.Traffic, rnd: Round | None, expected, result: Result) -> list:
    """Check a round's responses; returns its samples (failed: inf latency)."""
    total = sum(len(items) for items in load.connections)
    if rnd is None:
        result.add(total, total)
        result.notes.append("serve round failed to start")
        return [loadgen.Sample(item, 0, 0.0, 0.0, None) for item in load.items()]
    wrong = checks.check_responses(rnd.samples, expected)
    if rnd.exit_code != 0:
        # A server that does not shut down cleanly fails its round.
        result.notes.append(f"serve: server exit {rnd.exit_code}")
        for sample in rnd.samples:
            sample.status = None
        wrong = len(rnd.samples)
    for sample in rnd.samples:
        sample.body = b""
    result.add(len(rnd.samples), wrong)
    if wrong:
        result.notes.append(f"serve: {wrong} failed, refused or wrong response(s)")
    return rnd.samples


def _classes(samples) -> dict[str, list[float]]:
    by_class: dict[str, list[float]] = {"hit": [], "miss": []}
    for sample in samples:
        by_class[sample.item.klass].append(sample.latency_ms)
    return by_class


def _serve_timed(co: Checkout, seed: int, seconds: float) -> Result:
    result = Result("serve")
    load = traffic.generate(seed, PER_CONNECTION)
    expected = checks.reference_bodies(co.env(), load.bodies)
    rounds, samples = [], []
    begin = time.perf_counter()
    while True:
        rnd = _serve_round(co, load)
        samples += _account(load, rnd, expected, result)
        if rnd is not None:
            rounds.append(rnd)
        if time.perf_counter() - begin >= seconds:
            break
    by_class = _classes(samples)
    result.samples = {
        "setup_s": [r.setup_s for r in rounds],
        "wall_s": [r.wall_s for r in rounds],
        "loaded_s": [r.end - r.begin for r in rounds],
        "rss_mb": [r.rss_mb for r in rounds],
    }
    loaded = sum(r.end - r.begin for r in rounds)
    answered = sum(1 for r in rounds for s in r.samples if s.ok)
    result.metrics = {
        "setup_s": median(r.setup_s for r in rounds),
        "wall_s": median(r.wall_s for r in rounds),
        "peak_rss_mb": median(r.rss_mb for r in rounds),
        "throughput_rps": answered / loaded if loaded else 0.0,
        "hit_p50_ms": spans.percentile(by_class["hit"], 0.5),
        "hit_p90_ms": spans.percentile(by_class["hit"], 0.9),
        "miss_p50_ms": spans.percentile(by_class["miss"], 0.5),
        "miss_p90_ms": spans.percentile(by_class["miss"], 0.9),
    }
    n = len(rounds)
    result.counts = {
        "setup_s": n, "wall_s": n, "peak_rss_mb": n, "throughput_rps": len(samples),
        "hit_p50_ms": len(by_class["hit"]), "hit_p90_ms": len(by_class["hit"]),
        "miss_p50_ms": len(by_class["miss"]), "miss_p90_ms": len(by_class["miss"]),
    }
    return result


def serve_layer_metrics(trace: dict, rnd: Round, plain: Round) -> dict[str, float]:
    """Per-layer metrics of one traced serve round.

    The client round trips become ``service.http_s`` spans; each
    server-side span tagged with a request id is re-parented under its
    request's round trip, so the round trip's self time is the HTTP
    and event-loop time no server span covers.
    """
    records = [list(span) for span in trace["spans"]]
    client_index = {}
    for sample in rnd.samples:
        if sample.rid is not None:
            client_index[sample.rid] = len(records)
            records.append(["service.http_s", sample.start, sample.end, None, sample.rid])
    for span in records:
        if span[3] is None and span[0] != "service.http_s" and span[4] in client_index:
            span[3] = client_index[span[4]]
    merged = dict(trace, spans=records)
    out = layer_metrics(merged, rnd.started, rnd.end)
    own = spans.self_times(records)
    http = [own[i] for i in client_index.values()]
    out["service.http_ms"] = _median_ms(http)
    durations: dict[str, list[float]] = defaultdict(list)
    serialize: dict[str, float] = defaultdict(float)
    for name, start, end, parent, rid in records:
        if name == "service.serialize_s" and rid is not None:
            serialize[rid] += end - start
        else:
            durations[name].append(end - start)
    out["service.parse_ms"] = _median_ms(durations["service.parse_s"])
    out["service.submit_ms"] = _median_ms(durations["service.submit_s"])
    out["service.serialize_ms"] = _median_ms(list(serialize.values()))
    counters = (rnd.snapshot or {}).get("counters", {})
    out["service.coalesced"] = counters.get("coalesced_total", 0)
    by_class = _classes(plain.samples)
    out["service.hits"] = len(by_class["hit"])
    out["service.misses"] = len(by_class["miss"])
    out["service.errors"] = sum(1 for s in plain.samples if not s.ok)
    out["service.hit_p99_ms"] = spans.percentile(by_class["hit"], 0.99)
    out["service.miss_p99_ms"] = spans.percentile(by_class["miss"], 0.99)
    out["trace.overhead_ratio"] = (rnd.end - rnd.started) / (plain.end - plain.started)
    return out


def _serve_traced(co: Checkout, seed: int, seconds: float) -> Result:
    result = Result("serve")
    load = traffic.generate(seed, PER_CONNECTION)
    expected = checks.reference_bodies(co.env(), load.bodies)
    pairs = []
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = _serve_round(co, load)
        _account(load, plain, expected, result)
        spans_path = co.work / "serve-spans.json"
        spans_path.unlink(missing_ok=True)
        traced = _serve_round(co, load, spans_path)
        _account(load, traced, expected, result)
        if plain is None or traced is None:
            break
        pairs.append(serve_layer_metrics(spans.load(spans_path), traced, plain))
        now = time.perf_counter()
        if now - begin + (now - pair_start) > seconds:
            break
    return _median_pair(result, pairs)


def run_workload(co: Checkout, workload: str, seed: int, seconds: float, trace: bool) -> Result:
    if workload == "serve":
        return (_serve_traced if trace else _serve_timed)(co, seed, seconds)
    batch = BATCHES[workload]
    return (_batch_traced if trace else _batch_timed)(co, batch, seed, seconds)
