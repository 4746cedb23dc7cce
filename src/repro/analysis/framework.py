"""The AST-walking core: source loading, suppressions, rule dispatch.

A rule is a class with an ``id``, a ``severity``, and one or both of
two hooks: :meth:`Rule.check_file` (called once per parsed file inside
the rule's scope) and :meth:`Rule.check_project` (called once with the
whole file set, for cross-file invariants like engine-tier parity).
The driver, :func:`run_analysis`, loads files, runs every registered
rule, drops suppressed findings, and returns them in report order;
``repro lint`` and the rule tests both run through it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, sort_findings
from repro.util.profiling import timed

__all__ = [
    "Rule",
    "SourceFile",
    "apply_suppressions",
    "collect_files",
    "in_scope",
    "run_analysis",
    "run_file_rules",
    "run_project_rules",
    "syntax_error_finding",
]

#: ``# lint-ok: R001, R004`` waives the listed rules on that line;
#: ``# lint-ok-file: R003`` anywhere waives them for the whole file.
_SUPPRESSION = re.compile(r"#\s*lint-ok(?P<file>-file)?:\s*(?P<rules>[A-Z][0-9]{3}(?:\s*,\s*[A-Z][0-9]{3})*)")


@dataclass
class SourceFile:
    """One parsed module plus everything rules need to inspect it.

    Attributes:
        rel: Repo-relative POSIX path (the path findings report).
        text: Raw source.
        tree: Parsed AST (``None`` when the file has a syntax error —
            the driver reports that as a finding instead of crashing).
        line_suppressions: line number -> rule ids waived on that line.
        file_suppressions: rule ids waived for the whole file.
    """

    rel: str
    text: str
    tree: ast.Module | None
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        try:
            tree: ast.Module | None = ast.parse(text, filename=rel)
        except SyntaxError:
            tree = None
        line_suppressions: dict[int, set[str]] = {}
        file_suppressions: set[str] = set()
        for number, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESSION.search(line)
            if not match:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("file"):
                file_suppressions |= rules
            else:
                line_suppressions.setdefault(number, set()).update(rules)
        return cls(rel, text, tree, line_suppressions, file_suppressions)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is waived at ``line`` of this file."""
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, set())


class Rule:
    """Base class for analysis rules; subclasses set the class fields."""

    id: str = "R000"
    severity: str = "error"
    title: str = ""

    def check_file(
        self, file: SourceFile, config: AnalysisConfig
    ) -> Iterable[Finding]:
        """Per-file findings; the driver has already checked scope."""
        return ()

    def scope(self, config: AnalysisConfig) -> tuple[str, ...]:
        """Path prefixes this rule applies to (default: everything)."""
        return ()

    def check_project(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterable[Finding]:
        """Whole-project findings (cross-file invariants)."""
        return ()

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Convenience constructor anchored at an AST node."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def in_scope(rel: str, prefixes: tuple[str, ...]) -> bool:
    """Whether a repo-relative path falls under any scope prefix."""
    for prefix in prefixes:
        if rel == prefix or rel.startswith(prefix.rstrip("/") + "/"):
            return True
    return False


def collect_files(root: Path, paths: Iterable[str]) -> list[SourceFile]:
    """Load every ``.py`` file under the configured trees, sorted.

    The returned list is **always** in sorted repo-relative path order
    — an explicit contract, not an accident of ``rglob``: the report
    order and the baseline fingerprints assume one canonical file
    order, so runs from any working directory or argument order
    report byte-identical findings (``tests/analysis/test_framework.py``
    asserts it).
    """
    seen: dict[str, SourceFile] = {}
    for entry in paths:
        base = root / entry
        if base.is_file() and base.suffix == ".py":
            candidates: Iterator[Path] = iter([base])
        elif base.is_dir():
            candidates = base.rglob("*.py")
        else:
            raise FileNotFoundError(
                f"analysis path {entry!r} does not exist under {root}"
            )
        for path in candidates:
            rel = path.relative_to(root).as_posix()
            if rel not in seen:
                seen[rel] = SourceFile.load(path, rel)
    return [seen[rel] for rel in sorted(seen)]


def syntax_error_finding(file: SourceFile) -> Finding:
    """The R000 finding reported for a file that does not parse."""
    return Finding(
        rule="R000",
        severity="error",
        path=file.rel,
        line=1,
        col=0,
        message="file does not parse; fix the syntax error first",
    )


def run_file_rules(
    file: SourceFile, rules: Sequence[Rule], config: AnalysisConfig
) -> dict[str, list[Finding]]:
    """One file's per-rule findings, scope-filtered, unsuppressed.

    Returns an entry for every rule that applies to the file (empty
    list = ran clean).  Suppressions are *not* applied here — they are
    part of presentation, not of the rule result —
    :func:`apply_suppressions` filters at assembly time.  Each rule's
    time lands in the ``lint.<rule>`` profiling section.
    """
    results: dict[str, list[Finding]] = {}
    if file.tree is None:
        return results
    for rule in rules:
        prefixes = rule.scope(config)
        if prefixes and not in_scope(file.rel, prefixes):
            continue
        with timed(f"lint.{rule.id}"):
            results[rule.id] = list(rule.check_file(file, config))
    return results


def run_project_rules(
    files: Sequence[SourceFile],
    rules: Sequence[Rule],
    config: AnalysisConfig,
    root: Path,
) -> list[Finding]:
    """Cross-file findings of every rule, timed like the per-file
    hooks under ``lint.<rule>``."""
    findings: list[Finding] = []
    for rule in rules:
        with timed(f"lint.{rule.id}"):
            findings.extend(rule.check_project(files, config, root))
    return findings


def apply_suppressions(
    findings: Iterable[Finding], files: Sequence[SourceFile]
) -> list[Finding]:
    """Drop findings waived by ``# lint-ok`` markers; sort the rest.

    ``R000`` can never be suppressed, and findings anchored outside
    the analyzed file set (e.g. R008 findings on a C source) have no
    waiver surface, so they always report.
    """
    by_rel = {file.rel: file for file in files}
    kept = [
        f
        for f in findings
        if f.rule == "R000"
        or f.path not in by_rel
        or not by_rel[f.path].suppressed(f.rule, f.line)
    ]
    return sort_findings(kept)


def run_analysis(
    root: Path,
    config: AnalysisConfig,
    rules: Sequence[Rule],
    rule_filter: Iterable[str] | None = None,
    files: Sequence[SourceFile] | None = None,
) -> list[Finding]:
    """Run ``rules`` over the configured trees; returns sorted findings.

    The only entry point: ``repro lint`` and the rule tests both call it.
    ``rule_filter`` restricts to the given rule ids (``R000`` parse
    errors always report).  ``files`` lets tests inject a synthetic
    file set.
    """
    wanted = set(rule_filter) if rule_filter is not None else None
    if files is None:
        files = collect_files(root, config.paths)
    findings: list[Finding] = []
    for file in files:
        if file.tree is None:
            findings.append(syntax_error_finding(file))
    active = [r for r in rules if wanted is None or r.id in wanted]
    for file in files:
        for per_rule in run_file_rules(file, active, config).values():
            findings.extend(per_rule)
    findings.extend(run_project_rules(files, active, config, root))
    return apply_suppressions(findings, files)
