"""Static analysis of protocol rule surfaces.

The paper's state model gives every complexity and space claim its
footing: a rule reads only its 1-hop view and writes only its own
register, atomically.  This package proves the *shape* of those
contracts — locality, write ownership, schema coverage, determinism, and
agreement between the rule implementations each protocol may carry
(``step`` / ``fast_step_slots``) — by AST inspection of
the registered protocols, before any test executes a single move.  In
the spirit of proof-labeling schemes, well-formedness of the rules
themselves carries part of the proof.

Entry points: ``python -m repro statics check`` (the CI gate) and
:func:`repro.statics.analyzer.analyze_protocol` (the library API the
tests drive).
"""

from repro.statics.analyzer import (
    analyze_protocol,
    analyze_registry,
    analyze_runtime_bridges,
    finalize,
)
from repro.statics.model import Finding, Site
from repro.statics.rules import ALL_RULES, RULE_CATALOG

__all__ = [
    "ALL_RULES",
    "Finding",
    "RULE_CATALOG",
    "Site",
    "analyze_protocol",
    "analyze_registry",
    "analyze_runtime_bridges",
    "finalize",
]
