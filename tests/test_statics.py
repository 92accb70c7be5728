"""``repro.statics`` — the analyzer caught red-handed, series by series.

Each rule series gets a deliberately broken fixture protocol defined in
*this* module (the analyzer follows MRO source files, so test fixtures
are first-class analysis targets): an L-series locality leak, a W-series
in-place register write, an S-series schema typo and hard-coded slot,
and a D-series ambient coin flip and set iteration.  On top of the
synthetic fixtures:

* the PR 1 regression — a ``GuidedMST`` variant that consults the global
  detector *without* the certificate boundary — must light up L-series
  findings on the offending layer, found purely by AST inspection,
  without executing a single move;
* the real registry must be clean (every finding waived inline), which
  is exactly the CI gate;
* inline waivers must suppress exactly the findings they name.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.bgr_mdst import BigMemoryMDST
from repro.certify.oracle import DigestLayer
from repro.core.sst import SpanningTreeProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import (
    ORACLE_DIGEST_FIELDS,
    SWAP,
    WORK,
    GuidedMST,
    NCALabelLayer,
    guided_mst_protocol,
)
from repro.graphs import generators
from repro.runtime.protocol import (
    RULE_ENTRYPOINTS,
    ComposedProtocol,
    Protocol,
)
from repro.runtime.registers import NONE, RegisterSpec, counter_field
from repro.statics import analyze_protocol, analyze_registry, finalize
from repro.statics.analyzer import analyze_runtime_bridges
from repro.statics.model import waiver_codes
from repro.statics.report import REPORT_SCHEMA, build_report, render_ascii

REPO_ROOT = Path(__file__).resolve().parents[1]

NET = generators.ring(5, seed=0, weighted=True)


def _rules(findings) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# synthetic fixtures, one per rule series
# ----------------------------------------------------------------------

class _TwoField(Protocol):
    """Shared two-register spec so fixtures stay one-method small."""

    def register_spec(self, net) -> RegisterSpec:
        return RegisterSpec([
            counter_field("x", lambda n: n.n_bound),
            counter_field("y", lambda n: n.n_bound),
        ])


class LeakyLocality(_TwoField):
    """L-series bait: a global BFS inside a 1-hop rule."""

    name = "fixture-leaky"

    def fast_step_slots(self, schema):
        x = schema.slot("x")

        def rule(net, config, node, own, nbr_rows):
            dist = net.bfs_distances(net.min_id)
            want = dist[node] % 2
            if own[x] != want:
                return {x: want}
            return None

        return rule


class NeighborWriter(_TwoField):
    """W-series bait: mutates neighbor and own registers in place."""

    name = "fixture-writer"

    def fast_step_slots(self, schema):
        x = schema.slot("x")

        def rule(net, config, node, own, nbr_rows):
            for _u, st in nbr_rows:
                st[x] = 0
            config[node].update({"y": 1})
            return None

        return rule


class SchemaTypo(_TwoField):
    """S-series bait: unknown field literal + hard-coded slot index."""

    name = "fixture-typo"

    def fast_step_slots(self, schema):
        x = schema.slot("x")
        zz = schema.index["zz"]

        def rule(net, config, node, own, nbr_rows):
            if own[1] or own[zz]:
                return {x: 1}
            return None

        return rule


class CoinFlipper(_TwoField):
    """D-series bait: ambient RNG plus unordered-set iteration."""

    name = "fixture-coin"

    def fast_step_slots(self, schema):
        x, y = schema.slots("x", "y")

        def rule(net, config, node, own, nbr_rows):
            if random.random() < 0.5:
                return {x: (own[x] + 1) % 2}
            for u in set(net.neighbors(node)):
                if config[u][x]:
                    return {y: 1}
            return None

        return rule


class FilteredChildrenPort(_TwoField):
    """Reads its children's ``y`` only through a derived ``(u, st)``
    list; the clean twin of :class:`FilteredChildrenWriter`."""

    name = "fixture-filtered-children"

    def fast_step_slots(self, schema):
        x, y = schema.slot("x"), schema.slot("y")

        def rule(net, config, node, own, nbr_rows):
            children = [(u, st) for u, st in nbr_rows if st[x] == node]
            ok = all(kst[y] for _, kst in children)
            if own[x] != int(ok):
                return {x: int(ok)}
            return None

        return rule


class FilteredChildrenWriter(_TwoField):
    """Writes in place through a row of a derived ``(u, st)`` list: the
    re-packed rows are still registers, so W001 fires."""

    name = "fixture-filtered-children-writer"

    def fast_step_slots(self, schema):
        x, y = schema.slot("x"), schema.slot("y")

        def rule(net, config, node, own, nbr_rows):
            children = [(u, st) for u, st in nbr_rows if st[x] == node]
            for _, kst in children:
                kst[y] = 0
            return None

        return rule


class HelperRowPort(_TwoField):
    """Reads its parent's ``y`` through a row returned by a local helper;
    the clean twin of :class:`HelperRowWriter`."""

    name = "fixture-helper-row"

    def fast_step_slots(self, schema):
        x, y = schema.slot("x"), schema.slot("y")

        def rule(net, config, node, own, nbr_rows):
            def row_of(target):
                for u, ust in nbr_rows:
                    if u == target:
                        return ust
                return None

            pst = row_of(own[x])
            want = pst[y] if pst is not None else 0
            if own[x] != want:
                return {x: want}
            return None

        return rule


class HelperRowWriter(_TwoField):
    """Writes in place through a row returned by a local helper: the
    returned row is still a register, so W001 fires."""

    name = "fixture-helper-row-writer"

    def fast_step_slots(self, schema):
        x, y = schema.slot("x"), schema.slot("y")

        def rule(net, config, node, own, nbr_rows):
            def row_of(target):
                for u, ust in nbr_rows:
                    if u == target:
                        return ust
                return None

            pst = row_of(own[x])
            if pst is not None:
                pst[y] = 0
            return None

        return rule


class WaivedLeak(_TwoField):
    """A single L001 suppressed by an inline waiver on its own line."""

    name = "fixture-waived"

    def fast_step_slots(self, schema):
        x = schema.slot("x")

        def rule(net, config, node, own, nbr_rows):
            size = net.n  # statics: ignore[L001] -- n is a probe constant
            if own[x] != size % 2:
                return {x: size % 2}
            return None

        return rule


class CleanPair(_TwoField):
    """A well-formed rule: the analyzer must stay silent."""

    name = "fixture-clean"

    def fast_step_slots(self, schema):
        x = schema.slot("x")

        def rule(net, config, node, own, nbr_rows):
            lo = min((st[x] for _, st in nbr_rows), default=0)
            if own[x] != lo:
                return {x: lo}
            return None

        return rule


class ProbedClean(CleanPair):
    """A clean rule plus a global-sweeping observer (the telemetry
    layer's ``probe_potential``): observers live outside the rule
    surface, so the analyzer must stay silent."""

    name = "fixture-probed"

    def probe_potential(self, net, config):
        total = 0
        for v in net.nodes:  # a global sweep — legal *in a probe*
            total += config[v]["x"]
        return total


class ProbeChaser(ProbedClean):
    """A rule that *calls* its own observer: traversal must stop at the
    observer boundary instead of flagging the probe's global sweep as a
    locality leak inside the rule."""

    name = "fixture-probe-chaser"

    def fast_step_slots(self, schema):
        x = schema.slot("x")

        def rule(net, config, node, own, nbr_rows):
            total = self.probe_potential(net, config)
            if own[x] != total % 2:
                return {x: total % 2}
            return None

        return rule


class UncertifiedMST(GuidedMST):
    """PR 1's bug, re-introduced on purpose: the root's compiled
    transition consults the global detector directly, with no
    ``CertifiedOracle`` boundary, so its rule reads far beyond the 1-hop
    view the engine invalidates."""

    def slot_hooks(self, schema):
        def transition(net, config, me, own, nbr_rows, phase, cand):
            if phase == SWAP:
                return WORK, NONE
            payload = self._decide(net, config)  # no consult(): global reads leak
            if payload is None:
                return None
            return SWAP, payload

        return super().slot_hooks(schema)._replace(transition=transition)


def _uncertified_protocol() -> ComposedProtocol:
    digest = DigestLayer(fields=ORACLE_DIGEST_FIELDS)
    return ComposedProtocol(
        [MalleableTreeProtocol(), NCALabelLayer(), digest,
         UncertifiedMST(digest)],
        name="uncertified-mst")


def _analyze(proto_cls):
    return analyze_protocol(proto_cls(), net=NET)


# ----------------------------------------------------------------------
# per-series detection
# ----------------------------------------------------------------------

def test_locality_fixture_fires_l001():
    findings = _analyze(LeakyLocality)
    hits = [f for f in findings if f.rule == "L001"]
    assert len(hits) >= 2  # bfs_distances and min_id
    for f in hits:
        assert f.protocol == "fixture-leaky"
        assert f.layer == "LeakyLocality"
        assert f.path == "fast_step_slots"
        assert f.site.file.endswith("test_statics.py")
        assert f.site.line > 0
        assert f.active


def test_locality_declaration_does_not_excuse_a_leak():
    # the rule surface has no read-locality setting: a leftover
    # ``read_locality = "global"`` attribute is inert and the leak fires
    class DeclaredGlobal(LeakyLocality):
        name = "fixture-global"
        read_locality = "global"

    findings = analyze_protocol(DeclaredGlobal(), net=NET)
    assert "L001" in _rules(findings)
    assert all(f.active for f in findings if f.series == "L")
    assert "read_locality" not in DeclaredGlobal().rule_contract()


def test_write_ownership_fixture_fires_w_series():
    findings = _analyze(NeighborWriter)
    rules = _rules(findings)
    assert "W001" in rules  # st[x] = 0 on a neighbor row
    assert "W002" in rules  # config[node].update(...)


def test_schema_fixture_fires_s_series():
    findings = _analyze(SchemaTypo)
    rules = _rules(findings)
    assert "S001" in rules  # schema.index["zz"] is not a registered field
    assert "S002" in rules  # own[1] hard-codes a slot index


def test_determinism_fixture_fires_d_series():
    findings = _analyze(CoinFlipper)
    rules = _rules(findings)
    assert "D001" in rules  # random.random()
    assert "D002" in rules  # for u in set(...)


def test_clean_fixture_is_silent():
    assert _analyze(CleanPair) == []


@pytest.mark.parametrize("clean,writer", [
    (FilteredChildrenPort, FilteredChildrenWriter),
    (HelperRowPort, HelperRowWriter)], ids=["filtered-children", "helper-row"])
def test_derived_rows_are_registers(clean, writer):
    """Neighbor rows re-packed by a filtered comprehension or returned by
    a local helper keep their register tag: an in-place write through
    one fires W001, while the read-only twin stays silent."""
    assert _analyze(clean) == []
    hits = [f for f in _analyze(writer) if f.rule == "W001"]
    assert len(hits) == 1, hits


def test_probe_outside_rule_surface_is_silent():
    # a global-sweeping probe_potential next to a clean rule: observers
    # are not rule entrypoints, so the sweep is never even scanned
    assert _analyze(ProbedClean) == []


def test_probe_boundary_stops_traversal():
    # the rule *calls* the observer — without the boundary the probe's
    # `for v in net.nodes` sweep would fire L001 inside the rule's closure
    findings = _analyze(ProbeChaser)
    assert not [f for f in findings if "nodes" in f.message], findings
    assert not [f for f in findings if f.series == "L"], findings


# ----------------------------------------------------------------------
# the PR 1 regression, statically
# ----------------------------------------------------------------------

def test_uncertified_oracle_caught_without_execution():
    findings = analyze_protocol(_uncertified_protocol(), net=NET)
    leaks = [f for f in findings
             if f.series == "L" and f.layer == "UncertifiedMST"]
    assert leaks, "bypassing CertifiedOracle.consult must leak L-series"
    # on the compiled rule: the one path the engine runs
    assert {f.path for f in leaks} == {"fast_step_slots"}
    # the chain names the traversal from the entrypoint into the detector
    assert any("_decide" in " ".join(f.chain) or "_decide" in f.function
               for f in leaks)


def test_certified_guided_mst_is_local():
    findings = analyze_protocol(guided_mst_protocol(), net=NET)
    assert not [f for f in findings if f.series == "L"], (
        "the consult() boundary must shield the certified detector")


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------

def test_waiver_codes_parsing():
    assert waiver_codes("x = 1  # statics: ignore[L001, D]") == {"L001", "D"}
    assert waiver_codes("x = 1  # a plain comment") == frozenset()


def test_inline_waiver_suppresses_finding():
    findings = finalize(_analyze(WaivedLeak))
    assert len(findings) == 1
    f = findings[0]
    assert f.rule == "L001" and f.waived and not f.active
    assert f.waived_at and f.waived_at.endswith(str(f.site.line))


def test_fingerprints_are_stable_across_runs():
    a = {f.fingerprint() for f in _analyze(LeakyLocality)}
    b = {f.fingerprint() for f in _analyze(LeakyLocality)}
    assert a == b


# ----------------------------------------------------------------------
# report, contract metadata, registry gate
# ----------------------------------------------------------------------

def test_json_report_schema():
    findings = finalize(_analyze(LeakyLocality))
    report = build_report(findings, ["fixture-leaky"])
    assert report["schema"] == REPORT_SCHEMA
    assert report["tool"] == "repro.statics"
    assert report["protocols"] == ["fixture-leaky"]
    assert report["counts"]["total"] == len(findings)
    assert report["counts"]["active"] == len(findings)
    record = report["findings"][0]
    for key in ("rule", "series", "protocol", "layer", "path", "function",
                "file", "line", "message", "chain", "fingerprint", "active"):
        assert key in record
    json.dumps(report)  # must stay serializable (it is the CI artifact)
    assert "L001" in render_ascii(report)


def test_rule_contract_metadata():
    # the compiled rule and the optional topology-interrupt rule
    assert RULE_ENTRYPOINTS == ("fast_step_slots", "interrupt_step")
    contract = SpanningTreeProtocol().rule_contract()
    assert set(contract["entrypoints"]) == set(RULE_ENTRYPOINTS)
    assert contract["entrypoints"] == {
        "fast_step_slots": True, "interrupt_step": True}
    assert contract["layers"] is None
    bgr = BigMemoryMDST().rule_contract()["entrypoints"]
    assert bgr == {"fast_step_slots": True, "interrupt_step": False}

    composed = guided_mst_protocol().rule_contract()
    layer_classes = [layer["class"] for layer in composed["layers"]]
    assert [cls.rsplit(".", 1)[-1] for cls in layer_classes] == [
        "MalleableTreeProtocol", "NCALabelLayer", "DigestLayer", "GuidedMST"]


def test_registry_is_clean():
    findings = finalize(analyze_registry())
    active = [f.to_json() for f in findings if f.active]
    assert not active, active
    # the known bgr-mdst global detector exists and is waived at its
    # chain call site, proving transitive waivers round-trip
    bgr = [f for f in findings if f.protocol == "bgr-mdst"]
    assert bgr and all(f.waived for f in bgr)


def test_runtime_bridges_are_clean():
    assert analyze_runtime_bridges() == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "statics", *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_cli_check_json_gate():
    proc = _run_cli("check", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == REPORT_SCHEMA
    assert report["counts"]["active"] == 0


def test_cli_rules_catalog():
    proc = _run_cli("rules")
    assert proc.returncode == 0
    for rule_id in ("L001", "W001", "S001", "D001"):
        assert rule_id in proc.stdout


def test_cli_unknown_protocol_is_usage_error():
    proc = _run_cli("check", "--protocol", "no-such-protocol")
    assert proc.returncode == 2
    assert "unknown protocol" in proc.stderr
