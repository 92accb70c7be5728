"""``python -m repro statics`` — the static-analysis command line.

::

    python -m repro statics check
    python -m repro statics check --protocol guided-mst --format json
    python -m repro statics rules

``check`` exits 0 when every finding is waived inline, 1 when any
finding is active, 2 on usage errors — so CI can gate on it directly.
``--out PATH`` writes the JSON report regardless of format, for artifact
upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.statics.analyzer import analyze_registry, finalize
from repro.statics.report import build_report, render_ascii
from repro.statics.rules import RULE_CATALOG

__all__ = ["register_statics"]


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.experiments.registry import PROTOCOLS
    names = args.protocol
    if names:
        unknown = [n for n in names if n not in PROTOCOLS]
        if unknown:
            print(f"error: unknown protocol(s): {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(PROTOCOLS))})",
                  file=sys.stderr)
            return 2
    findings = finalize(analyze_registry(names))
    report = build_report(findings,
                          sorted(names) if names else sorted(PROTOCOLS))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_ascii(report))
    active = report["counts"]["active"]
    if active:
        print(f"STATICS GATE FAILED: {active} active finding(s) — fix, "
              f"or waive with '# statics: ignore[RULE]' next to the "
              f"argument for its soundness", file=sys.stderr)
        return 1
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    rows = [(rid, series, what) for rid, series, what in RULE_CATALOG]
    print(format_table("statics rule catalog (see EXPERIMENTS.md)",
                       ["rule", "series", "what it catches"], rows))
    return 0


def register_statics(subparsers) -> None:
    """Attach the ``statics`` subcommand to ``python -m repro``."""
    p = subparsers.add_parser(
        "statics",
        help="AST rule-surface analyzer (locality/ownership/determinism)")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    p_check = ssub.add_parser(
        "check", help="analyze the protocol registry; exit 1 on findings")
    p_check.add_argument("--protocol", action="append", metavar="NAME",
                         help="restrict to one registry protocol "
                              "(repeatable; default: all)")
    p_check.add_argument("--format", choices=("ascii", "json"),
                         default="ascii",
                         help="stdout rendering (default: ascii)")
    p_check.add_argument("--out", metavar="PATH",
                         help="also write the JSON report to PATH "
                              "(the CI artifact)")
    p_check.set_defaults(fn=_cmd_check)

    p_rules = ssub.add_parser("rules", help="print the rule catalog")
    p_rules.set_defaults(fn=_cmd_rules)
