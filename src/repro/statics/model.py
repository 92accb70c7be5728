"""Findings, waivers and the committed baseline of ``repro.statics``.

A :class:`Finding` is one rule violation at one source location, tagged
with the protocol and layer whose rule surface it was discovered on.  Two
suppression mechanisms exist, both following the rule that every
exception must be *visible in the diff*:

* an inline waiver comment ``# statics: ignore[RULE]`` on the finding's
  line (or the line above it, or any call site of the chain that reached
  it) — for violations that are individually argued sound, with the
  argument sitting right next to the waiver;
* a committed baseline file mapping finding *fingerprints* to an
  acknowledgement — for grandfathering a batch during a migration.
  Fingerprints deliberately exclude line numbers so unrelated edits to a
  file do not invalidate the baseline.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BASELINE_SCHEMA",
    "Finding",
    "Site",
    "apply_waivers",
    "load_baseline",
    "waiver_codes",
    "write_baseline",
]

#: Bump on incompatible baseline-shape changes.
BASELINE_SCHEMA = 1

_WAIVER_RE = re.compile(r"#\s*statics:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


def waiver_codes(line: str) -> frozenset[str]:
    """The waiver codes carried by one source line (empty when none).

    A code is either a full rule id (``L001``) or a bare series letter
    (``L``) waiving the whole series at that site.
    """
    match = _WAIVER_RE.search(line)
    if match is None:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip())


@dataclass(frozen=True)
class Site:
    """One source location (repo-relative rendering happens in reports)."""

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass
class Finding:
    """One rule violation on one protocol's rule surface."""

    rule: str               #: rule id, e.g. ``"L001"``
    protocol: str           #: registry name of the analyzed protocol
    layer: str              #: class name of the layer owning the surface
    path: str               #: rule path: step / fast_step_slots / ...
    function: str           #: qualname of the function holding the issue
    site: Site              #: where the violating expression sits
    message: str            #: human-readable description
    #: call chain from the rule entrypoint down to ``function`` (qualnames)
    chain: tuple[str, ...] = ()
    #: every location where an inline waiver comment counts: the finding
    #: line itself plus each call site of the chain that reached it
    waiver_sites: tuple[Site, ...] = ()
    waived: bool = False        #: suppressed by an inline comment
    waived_at: str | None = None
    baselined: bool = False     #: suppressed by the committed baseline

    @property
    def series(self) -> str:
        return self.rule[:1]

    @property
    def active(self) -> bool:
        """Whether this finding should fail the gate."""
        return not (self.waived or self.baselined)

    def fingerprint(self) -> str:
        """Line-number-free identity used by the committed baseline."""
        key = "|".join(
            (self.rule, self.protocol, self.layer, self.path,
             self.function, self.message))
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "series": self.series,
            "protocol": self.protocol,
            "layer": self.layer,
            "path": self.path,
            "function": self.function,
            "file": self.site.file,
            "line": self.site.line,
            "message": self.message,
            "chain": list(self.chain),
            "fingerprint": self.fingerprint(),
            "waived": self.waived,
            "waived_at": self.waived_at,
            "baselined": self.baselined,
            "active": self.active,
        }


def apply_waivers(findings: list[Finding],
                  read_line: Callable[[str, int], str]) -> None:
    """Mark findings suppressed by inline ``# statics: ignore[...]``.

    ``read_line(file, lineno)`` returns one source line (1-based), or
    ``""`` when out of range.  A waiver counts on the finding's own line,
    on the line directly above it (comment-above style), and on any call
    site of the chain that reached the finding — so a protocol can waive
    a violation occurring inside a helper it calls at the call site it
    owns.
    """
    for finding in findings:
        sites: list[Site] = [finding.site, *finding.waiver_sites]
        for site in sites:
            for lineno in (site.line, site.line - 1):
                if lineno < 1:
                    continue
                codes = waiver_codes(read_line(site.file, lineno))
                if finding.rule in codes or finding.series in codes:
                    finding.waived = True
                    finding.waived_at = f"{site.file}:{lineno}"
                    break
            if finding.waived:
                break


# ----------------------------------------------------------------------
# baseline file
# ----------------------------------------------------------------------

def load_baseline(path: str | Path) -> set[str]:
    """The acknowledged fingerprints of a committed baseline file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: not a statics baseline "
            f"(schema {BASELINE_SCHEMA} expected)")
    entries = data.get("findings", [])
    return {str(e["fingerprint"]) for e in entries}


def write_baseline(path: str | Path, findings: list[Finding]) -> None:
    """Acknowledge every *active* finding into ``path``.

    Waived findings stay out: their suppression lives next to the code.
    """
    entries = [
        {
            "fingerprint": f.fingerprint(),
            "rule": f.rule,
            "protocol": f.protocol,
            "layer": f.layer,
            "function": f.function,
            "message": f.message,
        }
        for f in findings if not f.waived
    ]
    entries.sort(key=lambda e: (e["rule"], e["protocol"], e["fingerprint"]))
    payload = {"schema": BASELINE_SCHEMA, "findings": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
