"""Registry-wide orchestration of the static rule checks.

``analyze_protocol`` inspects one live protocol — a
:class:`~repro.runtime.protocol.ComposedProtocol` is analyzed layer by
layer against the *composed* register universe, exactly how the runtime
executes it — and ``analyze_registry`` sweeps every registered protocol
plus the runtime's composition bridges.  Protocols are instantiated on a
small probe network only to materialize their ``RegisterSpec``; no rule
is ever executed.
"""

from __future__ import annotations

from repro.statics.bindings import ScopeMap
from repro.statics.model import Finding, apply_waivers
from repro.statics.rules import ALL_RULES, LayerContext
from repro.statics.scan import (
    RulePath,
    build_paths,
    closure_of,
    read_source_line,
)

__all__ = [
    "analyze_protocol",
    "analyze_registry",
    "analyze_runtime_bridges",
    "finalize",
    "probe_network",
]

def probe_network():
    """A small weighted ring: enough to materialize every RegisterSpec."""
    from repro.graphs import generators
    return generators.ring(6, seed=0, weighted=True)


def iter_layers(protocol) -> list:
    from repro.runtime.protocol import ComposedProtocol
    if isinstance(protocol, ComposedProtocol):
        return list(protocol.layers)
    return [protocol]


def analyze_protocol(protocol, name: str | None = None, net=None,
                     scopes: dict[int, ScopeMap] | None = None
                     ) -> list[Finding]:
    """All rule findings for one protocol instance (layer-wise)."""
    if net is None:
        net = probe_network()
    if scopes is None:
        scopes = {}
    protocol_name = name or protocol.name
    universe = frozenset(protocol.register_spec(net).names)
    findings: list[Finding] = []
    for layer in iter_layers(protocol):
        ctx = LayerContext(
            protocol=protocol_name,
            layer=layer,
            layer_name=type(layer).__name__,
            universe=universe,
        )
        for path in build_paths(layer):
            for rule in ALL_RULES:
                findings.extend(rule.check_path(ctx, path, scopes))
    return findings


def analyze_runtime_bridges(scopes: dict[int, ScopeMap] | None = None
                            ) -> list[Finding]:
    """The composition machinery itself, held to the same W/L/D bar.

    ``ComposedProtocol.fast_step_slots`` and
    :func:`~repro.runtime.protocol.effective_delta` sit between every
    layer and its evaluators: an in-place mutation there would corrupt
    *all* protocols at once, so the audit runs them through the same
    rules with an empty field universe (the bridges are field-agnostic
    by design — any literal field access in them would itself be a
    smell, and fails S-series here).
    """
    from repro.runtime import protocol as runtime_protocol
    if scopes is None:
        scopes = {}
    targets = (runtime_protocol.ComposedProtocol.fast_step_slots,
               runtime_protocol.effective_delta)
    ctx = LayerContext(
        protocol="<runtime>",
        layer=None,
        layer_name="ComposedProtocol",
        universe=frozenset(),
    )
    findings: list[Finding] = []
    for fn in targets:
        units = closure_of(fn, None)
        if not units:  # pragma: no cover - source always present
            continue
        path = RulePath(path="fast_step_slots", layer=None, units=units)
        for rule in ALL_RULES:
            findings.extend(rule.check_path(ctx, path, scopes))
    return findings


def analyze_registry(names: list[str] | None = None) -> list[Finding]:
    """Sweep the protocol registry (optionally a subset) and the runtime's
    composition bridges."""
    from repro.experiments.registry import PROTOCOLS, build_protocol
    net = probe_network()
    scopes: dict[int, ScopeMap] = {}
    findings: list[Finding] = []
    for protocol_name in (names if names is not None else sorted(PROTOCOLS)):
        protocol, _entry = build_protocol(protocol_name)
        findings.extend(analyze_protocol(protocol, name=protocol_name,
                                         net=net, scopes=scopes))
    findings.extend(analyze_runtime_bridges(scopes))
    return findings


def finalize(findings: list[Finding]) -> list[Finding]:
    """Apply the inline waivers; returns the list."""
    apply_waivers(findings, read_source_line)
    return findings
