"""The repository benchmark: ``figures``, ``serve`` and ``faults``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct;
it is 2 when the checkout holds no program to run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
from pathlib import Path

from harness import Checkout
from measure import END_TO_END, PER_LAYER, run_workload

WORKLOADS = ("figures", "serve", "faults")


def _value(value: float):
    return value if math.isfinite(value) else None


def _table(result, units: dict[str, str]) -> list[str]:
    lines = [f"== {result.workload}"]
    for name, unit in units.items():
        value = result.metrics.get(name, math.nan)
        count = result.counts.get(name, 0)
        lines.append(f"  {name:32s} {value:>14.6g} {unit:8s} n={count}")
    rate = result.failed / result.attempted if result.attempted else float("nan")
    lines.append(
        f"  {'error_rate':32s} {rate:>14.6g} {'fraction':8s} "
        f"n={result.attempted} (failed {result.failed})"
    )
    lines += [f"  note: {note}" for note in result.notes]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    co = Checkout(Path.cwd())
    problem = co.missing()
    if problem is not None:
        print(f"perfbench: cannot run here: {problem}", file=sys.stderr)
        return 2
    co.prepare()
    # Servers stop on SIGINT.  A child inherits an ignored SIGINT (as
    # under nohup or a background shell), so give it back its default.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    meta = co.metadata(args.workload, args.seed, args.seconds, args.trace)
    try:
        meta.update(co.warm_up())
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(meta, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    results = [
        run_workload(co, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    for result in results:
        print("\n".join(_table(result, units)))

    def key(result, name: str) -> str:
        return name if len(results) == 1 else f"{result.workload}.{name}"

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(result, name): {
                "value": _value(result.metrics.get(name, math.nan)), "unit": unit,
            }
            for result in results
            for name, unit in units.items()
        },
    }
    (co.work / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **summary,
                    # Must stay below every child's peak: see harness.wait.
                    "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "counts": {r.workload: r.counts for r in results},
                    "samples": {r.workload: r.samples for r in results}}, indent=1)
    )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
