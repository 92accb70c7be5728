"""Findings and inline waivers of ``repro.statics``.

A :class:`Finding` is one rule violation at one source location, tagged
with the protocol and layer whose rule surface it was discovered on.
The one suppression mechanism is an inline waiver comment
``# statics: ignore[RULE]`` on the finding's line (or the line above it,
or any call site of the chain that reached it): every exception is
*visible in the diff*, with the argument for its soundness sitting right
next to the waiver.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "Finding",
    "Site",
    "apply_waivers",
    "waiver_codes",
]

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

    @property
    def series(self) -> str:
        return self.rule[:1]

    @property
    def active(self) -> bool:
        """Whether this finding should fail the gate."""
        return not self.waived

    def fingerprint(self) -> str:
        """Line-number-free identity of the finding: unrelated edits to
        its file do not change it."""
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

