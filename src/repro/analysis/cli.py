"""The ``repro lint`` front-end: output and exit codes.

Its flags are declared by :func:`repro.cli.add_lint_arguments`, so
parsing any other command imports nothing from :mod:`repro.analysis`;
this module is imported only when ``repro lint`` runs.  Exit codes:
``0`` clean (every finding baselined or none), ``1`` new findings,
``2`` usage or environment errors (not inside a checkout, unknown
rule, unreadable baseline, unwritable ``--output``) — always as a
clear message, never a traceback.

Findings come from :func:`repro.analysis.framework.run_analysis`, the
same function the rule tests call; this module maps flags to its inputs
and findings to one of three report formats: human text, the JSON
payload CI has always consumed, or SARIF 2.1.0 for annotation
publishing (``--format sarif --output lint.sarif``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.config import find_repo_root, load_config
from repro.analysis.findings import Finding
from repro.analysis.framework import run_analysis
from repro.analysis.rules import default_rules, known_rule_ids
from repro.util.profiling import PROFILER

__all__ = ["run_lint"]


def _fail(message: str) -> int:
    print(f"repro lint: error: {message}", file=sys.stderr)
    return 2


def _parse_rule_filter(specs: list[str]) -> list[str] | None:
    """``--rule`` occurrences (each possibly comma-separated) to ids."""
    rules: list[str] = []
    for spec in specs:
        rules.extend(part.strip() for part in spec.split(",") if part.strip())
    return rules or None


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    root = Path(args.root).resolve() if args.root else find_repo_root()
    if root is None or not (root / "src" / "repro").is_dir():
        where = args.root or Path.cwd()
        return _fail(
            f"not inside a repro checkout (no pyproject.toml with a "
            f"src/repro tree above {where}); run from the repository or "
            "pass --root DIR"
        )
    try:
        config = load_config(root)
    except ValueError as exc:
        return _fail(str(exc))
    known = known_rule_ids()
    rule_filter = _parse_rule_filter(args.rules)
    for rule_id in rule_filter or ():
        if rule_id not in known:
            return _fail(
                f"unknown rule {rule_id!r}; known rules: " + ", ".join(known)
            )
    if args.paths:
        for entry in args.paths:
            if not (root / entry).exists():
                return _fail(f"path {entry!r} does not exist under {root}")
        from dataclasses import replace

        config = replace(config, paths=tuple(args.paths))
    format_ = args.format_ or ("json" if args.json else "text")
    if args.profile:
        PROFILER.enable()
    try:
        findings = run_analysis(root, config, default_rules(), rule_filter)
    except ValueError as exc:  # a source file that is not UTF-8
        return _fail(str(exc))

    baseline_path = root / (args.baseline or config.baseline)
    if args.update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to "
            f"{baseline_path.relative_to(root)}",
            file=sys.stderr,
        )
        return 0

    try:
        baseline = Baseline.load(baseline_path)
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read baseline {baseline_path}: {exc}")
    new, baselined = baseline.split(findings)
    stale = baseline.stale(findings)

    active_rules = tuple(rule_filter) if rule_filter else known
    if format_ == "text":
        for finding in new:
            print(finding.format())
    else:
        if format_ == "json":
            payload = _json_payload(root, new, baselined, stale, active_rules)
            text = json.dumps(payload, indent=2) + "\n"
        else:
            from repro.analysis.sarif import dumps_sarif

            text = dumps_sarif(new, active_rules)
        if args.output:
            try:
                Path(args.output).write_text(text, encoding="utf-8")
            except OSError as exc:
                return _fail(
                    f"cannot write {args.output}: {exc.strerror or exc}"
                )
        else:
            sys.stdout.write(text)
    if format_ != "json":
        _emit_summary(new, baselined, stale, check=args.check)
    if args.profile:
        _emit_profile()
    return 1 if new else 0


def _json_payload(
    root: Path,
    new: list[Finding],
    baselined: list[Finding],
    stale: list[str],
    active_rules: tuple[str, ...],
) -> dict:
    return {
        "version": 1,
        "root": str(root),
        "rules": list(active_rules),
        "findings": [f.to_dict() for f in new],
        "baselined": [f.to_dict() for f in baselined],
        "stale_baseline_entries": stale,
        "new_count": len(new),
    }


def _emit_summary(
    new: list[Finding],
    baselined: list[Finding],
    stale: list[str],
    check: bool,
) -> None:
    """The stderr status lines shared by the human and SARIF paths."""
    if stale:
        print(
            f"note: {len(stale)} baseline entr"
            f"{'y is' if len(stale) == 1 else 'ies are'} stale (debt paid "
            "down); retire with --update-baseline",
            file=sys.stderr,
        )
    if new:
        rules = sorted({f.rule for f in new})
        print(
            f"{len(new)} new finding(s) across {', '.join(rules)}"
            + (f"; {len(baselined)} baselined" if baselined else ""),
            file=sys.stderr,
        )
    elif not check:
        print(
            "clean"
            + (f" ({len(baselined)} baselined finding(s))" if baselined else ""),
            file=sys.stderr,
        )


def _emit_profile() -> None:
    """Per-rule wall time from the profiling registry, slowest first."""
    stats = {
        name: stat
        for name, stat in PROFILER.report().items()
        if name.startswith("lint.")
    }
    if not stats:
        print("profile: no per-rule timings collected", file=sys.stderr)
        return
    width = max(len(name) for name in stats)
    print(f"{'rule section':{width}s} {'total':>10s}", file=sys.stderr)
    for name, stat in stats.items():
        print(f"{name:{width}s} {stat.seconds:9.4f}s", file=sys.stderr)
