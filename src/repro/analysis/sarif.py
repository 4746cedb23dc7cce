"""SARIF 2.1.0 output for ``repro lint`` findings.

SARIF (Static Analysis Results Interchange Format) is what CI systems
ingest to publish per-line annotations; ``--format sarif`` turns the
findings list into one ``run`` of the ``repro-lint`` driver.  The
emitter sticks to the stable core of the 2.1.0 schema:

* one ``reportingDescriptor`` per known rule (id, short description,
  default severity level);
* one ``result`` per finding with ``ruleId``, ``level``,
  ``message.text``, a single ``physicalLocation`` (1-based line and
  column against ``SRCROOT``), and the finding's line-independent
  baseline fingerprint under ``partialFingerprints`` so downstream
  tooling can track findings across edits exactly like the committed
  baseline does.

Severity maps 1:1 — ``error``/``warning``/``note`` are SARIF levels
already.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.findings import Finding
from repro.util.version import package_version

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif", "dumps_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: One-line rule descriptions shown by SARIF viewers next to the id.
_RULE_DESCRIPTIONS = {
    "R000": "file parses as Python",
    "R001": "seed hygiene / wall-clock hygiene",
    "R002": "TransferCost charge-site discipline",
    "R003": "engine-tier parity / registry coverage / stage protocol",
    "R004": "no float equality on energy metrics",
    "R005": "no unordered-set iteration feeding ordered outputs",
    "R006": "deadline hygiene on service awaits",
    "R007": "async-race & cancellation safety",
    "R008": "C <-> ctypes FFI contract",
}

_DEFAULT_LEVELS = {
    "R000": "error",
    "R001": "error",
    "R002": "error",
    "R003": "error",
    "R004": "warning",
    "R005": "warning",
    "R006": "warning",
    "R007": "warning",
    "R008": "error",
}


def _result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": finding.severity,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {
            "reproLintBaseline/v1": finding.fingerprint,
        },
    }


def to_sarif(findings: Sequence[Finding], rule_ids: Sequence[str]) -> dict:
    """The SARIF log dict for one lint run.

    ``rule_ids`` is the active rule set (all of them appear as
    reporting descriptors, found or not — that is how CI knows a rule
    ran and was clean).
    """
    rules = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {
                "text": _RULE_DESCRIPTIONS.get(rule_id, rule_id)
            },
            "defaultConfiguration": {
                "level": _DEFAULT_LEVELS.get(rule_id, "warning")
            },
        }
        for rule_id in rule_ids
    ]
    run = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": (
                    "https://github.com/repro/repro"
                    "/blob/main/docs/static_analysis.md"
                ),
                "version": package_version(),
                "rules": rules,
            }
        },
        "originalUriBaseIds": {
            "SRCROOT": {"uri": "file:///", "description": {
                "text": "repository checkout root"
            }},
        },
        "results": [_result(finding) for finding in findings],
        "columnKind": "utf16CodeUnits",
    }
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def dumps_sarif(findings: Sequence[Finding], rule_ids: Sequence[str]) -> str:
    """:func:`to_sarif` as stable, indented JSON text."""
    return json.dumps(
        to_sarif(findings, rule_ids), indent=2, sort_keys=True
    ) + "\n"
