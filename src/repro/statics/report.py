"""Rendering: findings -> JSON report / ascii table.

The JSON shape is the CI artifact contract (``statics_findings.json``);
its ``schema`` field gates consumers the same way the BENCH reports do.
Reports are deliberately timestamp-free so a re-run on an unchanged tree
is byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.statics.model import Finding
from repro.statics.rules import RULE_CATALOG
from repro.statics.scan import PACKAGE_ROOT

__all__ = ["REPORT_SCHEMA", "build_report", "render_ascii"]

#: Bump on incompatible findings-report shape changes.
REPORT_SCHEMA = 2

_REPO_ROOT = PACKAGE_ROOT.parents[1]


def _relpath(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(_REPO_ROOT))
    except ValueError:
        return path


def build_report(findings: list[Finding],
                 protocols: list[str]) -> dict[str, Any]:
    records = []
    for finding in findings:
        record = finding.to_json()
        record["file"] = _relpath(str(record["file"]))
        records.append(record)
    records.sort(key=lambda r: (r["protocol"], r["rule"], r["file"],
                                r["line"], r["message"]))
    return {
        "schema": REPORT_SCHEMA,
        "tool": "repro.statics",
        "protocols": list(protocols),
        "rules": [{"id": rid, "series": series, "what": what}
                  for rid, series, what in RULE_CATALOG],
        "counts": {
            "total": len(findings),
            "active": sum(1 for f in findings if f.active),
            "waived": sum(1 for f in findings if f.waived),
        },
        "findings": records,
    }


def render_ascii(report: dict[str, Any]) -> str:
    from repro.analysis import format_table
    counts = report["counts"]
    rows = []
    for rec in report["findings"]:
        state = "waived" if rec["waived"] else "ACTIVE"
        rows.append((rec["rule"], rec["protocol"], rec["layer"],
                     f"{rec['file']}:{rec['line']}", state,
                     rec["message"]))
    if not rows:
        rows.append(("-", "-", "-", "-", "-",
                     "no findings: every rule surface is clean"))
    title = (f"statics: {counts['active']} active / {counts['total']} total "
             f"({counts['waived']} waived) "
             f"over {len(report['protocols'])} protocols")
    return format_table(title,
                        ["rule", "protocol", "layer", "where", "state",
                         "finding"],
                        rows)
