"""The local certification subsystem (repro.certify).

Four pillars:

* **Completeness** — the certificate assigner's decoration of each task's
  legitimate configuration is accepted by every node's local verifier,
  is legal, and is genuinely silent for the runtime protocol.
* **Adversarial soundness** — every sampled single-register corruption of
  a certified legitimate configuration is rejected by at least one
  node's neighborhood-only verifier, or lands on another configuration
  that is itself certified *and* legal (the SST alternate-parent case).
* **The certificate-backed oracle** — the guided protocols' rules read
  only the closed 1-hop neighborhood (no L-series site in
  ``repro.statics``); the subtree digests settle to the assigner's
  fixpoint; the memo makes the consulting rule deterministic per digest.
* **The model checker** — closure at the legitimate configuration and
  convergence from corruptions under *all* daemon choices at small n,
  plus detection of deliberately broken dynamics.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.certify.modelcheck import check_certifier, explore
from repro.certify.oracle import CertifiedOracle, DigestLayer, config_digest
from repro.certify.schemes import (
    CERTIFIERS,
    get_certifier,
    single_register_corruptions,
)
from repro.certify.space import measure_task, space_rows
from repro.baselines.dim_bfs import AdHocBFSProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import (
    ORACLE_DIGEST_FIELDS,
    SWAP,
    WORK,
    GuidedMDST,
    GuidedMST,
    NCALabelLayer,
    guided_bfs_protocol,
    guided_mdst_protocol,
    guided_mst_protocol,
    _endpoint_feasible_of,
)
from repro.graphs import random_connected_graph, ring
from repro.runtime import Simulator, random_configuration
from repro.runtime.protocol import ComposedProtocol, Protocol
from repro.runtime.registers import NONE, RegisterSpec, flag_field
from repro.statics import analyze_protocol

from referee_rules import (
    DigestLayerReferee,
    NodeView,
    StepRule,
    referee_step,
    step_to_slots,
)

TASKS = sorted(CERTIFIERS)

SRC = Path(__file__).resolve().parent.parent / "src"


def _env():
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# completeness
# ----------------------------------------------------------------------


class TestLegitimateAccepted:
    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("n", [6, 11])
    def test_accepted_legal_and_silent(self, task, n):
        cert = CERTIFIERS[task]
        net = cert.build_network(n, seed=2)
        cfg = cert.legitimate(net)
        out = cert.verify(net, cfg)
        assert out.accepted, f"rejecting nodes: {out.rejecting}"
        assert cert.is_legal(net, cfg)
        # the certified configuration is the runtime protocol's fixpoint
        sim = Simulator(net, cert.protocol(), config=cfg)
        assert sim.is_silent()

    @pytest.mark.parametrize("task", TASKS)
    def test_verifier_reads_one_hop_only(self, task):
        """verify_node receives exactly the 1-hop neighborhood — locality
        is structural, not a convention."""
        cert = CERTIFIERS[task]
        net = cert.build_network(9, seed=3)
        cfg = cert.legitimate(net)
        for v in net.nodes:
            nbrs = [(u, cfg[u]) for u in net.neighbors(v)]
            assert cert.verify_node(net, v, cfg[v], nbrs)

    def test_stabilized_run_is_certified(self):
        """A real execution's final configuration certifies, not just the
        assigner's canonical one."""
        cert = get_certifier("guided-bfs")
        net = random_connected_graph(10, seed=7)
        proto = cert.protocol()
        sim = Simulator(net, proto,
                        config=random_configuration(net, proto, seed=8))
        assert sim.run(max_rounds=8000 * net.n).silent
        decorated = cert.certify(net, sim.config)
        assert cert.verify(net, decorated).accepted


# ----------------------------------------------------------------------
# adversarial soundness
# ----------------------------------------------------------------------


class TestCorruptionRejected:
    @pytest.mark.parametrize("task", TASKS)
    def test_every_single_register_corruption_rejected_or_legal(self, task):
        cert = CERTIFIERS[task]
        net = cert.build_network(8, seed=3)
        base = cert.legitimate(net)
        rng = random.Random(99)
        total = 0
        for v, field, value in single_register_corruptions(
                net, cert, base, rng, draws=3):
            total += 1
            cfg = {u: dict(s) for u, s in base.items()}
            cfg[v][field] = value
            out = cert.verify(net, cfg)
            if out.accepted:
                # acceptance is only permitted when the corruption lands
                # on another genuinely legitimate configuration
                assert cert.is_legal(net, cfg), (
                    f"certificate fake: node {v} field {field!r} "
                    f"-> {value!r} accepted but illegal")
        assert total > 50  # the sweep actually exercised the register

    def test_rejection_is_local(self):
        """A corruption is rejected by a node in the corrupted register's
        own closed neighborhood (the verifier cannot point elsewhere)."""
        cert = get_certifier("sst")
        net = ring(8, seed=1)
        base = cert.legitimate(net)
        cfg = {u: dict(s) for u, s in base.items()}
        victim = max(net.nodes)
        cfg[victim]["d"] = (cfg[victim]["d"] + 3) % net.n_bound
        out = cert.verify(net, cfg)
        assert not out.accepted
        closed = set(net.neighbors(victim)) | {victim}
        assert set(out.rejecting) & closed


# ----------------------------------------------------------------------
# the certificate-backed oracle
# ----------------------------------------------------------------------


class TestCertifiedOracle:
    @pytest.mark.parametrize("task", ["guided-bfs", "guided-mdst",
                                      "guided-mst"])
    def test_guided_protocols_read_only_the_closed_neighborhood(self, task):
        # the consult() boundary keeps every layer's rule 1-hop local, so
        # the analyzer finds no L-series site to waive in the first place
        findings = analyze_protocol(CERTIFIERS[task].protocol())
        assert not [f for f in findings if f.series == "L"], [
            f.to_json() for f in findings if f.series == "L"]

    def test_digest_layer_settles_to_assigner_fixpoint(self):
        cert = get_certifier("guided-mst")
        net = cert.build_network(9, seed=5)
        proto = cert.protocol()
        cfg = cert.legitimate(net)
        # corrupt every ver register; the digest layer must rebuild the
        # exact Merkle fixpoint the assigner computed
        expected = {v: cfg[v]["ver"] for v in net.nodes}
        for v in net.nodes:
            cfg[v]["ver"] = (cfg[v]["ver"] + 1 + v) % (2 ** 64)
        sim = Simulator(net, proto, config=cfg)
        assert sim.run(max_rounds=100 * net.n).silent
        assert {v: sim.config[v]["ver"] for v in net.nodes} == expected

    def test_config_digest_matches_runtime_layer(self):
        cert = get_certifier("guided-mst")
        net = cert.build_network(8, seed=6)
        cfg = cert.legitimate(net)
        layer = DigestLayer(fields=ORACLE_DIGEST_FIELDS)
        want = config_digest(net, cfg, ORACLE_DIGEST_FIELDS)
        for v in net.nodes:
            assert DigestLayerReferee(layer).expected(
                NodeView(net, v, cfg)) == want[v]

    def test_memo_is_write_once_per_key(self):
        oracle = CertifiedOracle()
        calls = []
        assert oracle.consult(7, lambda: calls.append(1) or "a") == "a"
        assert oracle.consult(7, lambda: calls.append(1) or "b") == "a"
        assert oracle.consult(8, lambda: calls.append(1) or "b") == "b"
        assert len(calls) == 2
        assert oracle.consults == 3 and oracle.misses == 2

    def test_mst_oracle_consults_once_per_digest(self):
        net = random_connected_graph(10, seed=8, weighted=True)
        proto = guided_mst_protocol()
        cfg = random_configuration(net, proto, seed=9)
        sim = Simulator(net, proto, config=cfg)
        assert sim.run(max_rounds=8000 * net.n).silent
        task = proto.layers[-1]
        assert task._oracle.misses <= task._oracle.consults
        assert task._oracle.misses >= 1


# ----------------------------------------------------------------------
# fast paths (adhoc-bfs / malleable-tree / the guided compositions)
# ----------------------------------------------------------------------


def _guided(task_cls, name: str) -> ComposedProtocol:
    digest = DigestLayer(fields=ORACLE_DIGEST_FIELDS)
    return ComposedProtocol(
        [MalleableTreeProtocol(), NCALabelLayer(), digest, task_cls(digest)],
        name=name)


class _StepOnlyMST(GuidedMST):
    """GuidedMST whose engine rule is the name-keyed ``step`` of the test
    referee, run through the slot adapter (the oracle operations stay
    this instance's)."""

    def fast_step_slots(self, schema):
        return step_to_slots(referee_step(self), schema)


class _StepOnlyMDST(GuidedMDST):
    fast_step_slots = _StepOnlyMST.fast_step_slots


_FAST_PATH_FACTORIES = {
    "adhoc-bfs": AdHocBFSProtocol,
    "malleable-tree": MalleableTreeProtocol,
    "guided-bfs": guided_bfs_protocol,
    "guided-mst": guided_mst_protocol,
    "guided-mdst": guided_mdst_protocol,
}

#: SWAP-payload NCA labels that are not labels: non-iterables, the empty
#: label, malformed segments, a foreign root apex
_JUNK_LABELS = ("junk", 5, (), ((99, 0),), ((3,),), ((1, 2, 3),),
                (("x", 0),), ((1, 0), (2, "d")))


def _snapshot_after(factory: str, net, seed: int, rounds: int):
    """The registers ``rounds`` rounds into a run from a random start:
    reachable states with SWAP chains in flight and roots about to
    consult."""
    proto = _FAST_PATH_FACTORIES[factory]()
    sim = Simulator(net, proto,
                    config=random_configuration(net, proto, seed=seed))
    for _ in range(rounds):
        if not sim.run_round():
            break
    return {v: dict(sim.config[v]) for v in net.nodes}


def _corrupt_guided(net, cfg, base, rng) -> None:
    """``base`` registers with random ones mixed in (junk labels and
    distances included), a mostly uniform phase, and SWAP payloads built
    around real edges — genuine, junk-labelled and malformed, per node
    or one shared broadcast."""
    nodes = list(net.nodes)
    phase = rng.choice((WORK, SWAP))
    for v in nodes:
        if rng.random() < 0.8:
            for f, val in base[v].items():
                if f not in ("ph", "ack", "bc") and rng.random() < 0.9:
                    cfg[v][f] = val
        if "lam" in cfg[v] and rng.random() < 0.05:
            cfg[v]["lam"] = rng.choice(_JUNK_LABELS)
        if rng.random() < 0.1:
            cfg[v]["d"] = rng.randint(0, 5)
        cfg[v]["ph"] = phase if rng.random() < 0.8 else rng.choice(
            (WORK, SWAP))
        cfg[v]["ack"] = rng.random() < 0.7

    def label(v):
        lam = cfg[v].get("lam", NONE)
        if lam is NONE or rng.random() < 0.3:
            return rng.choice(_JUNK_LABELS)
        return lam

    def payload(v):
        # the subtree endpoint a: v itself, a random node, or (so that v
        # sits inside the chain) one of v's descendants
        a = v if rng.random() < 0.7 else rng.choice(nodes)
        while rng.random() < 0.5:
            kids = [u for u in net.neighbors(a) if base[u]["par"] == a]
            if not kids:
                break
            a = rng.choice(kids)
        b = rng.choice(net.neighbors(a))
        x = a  # the removed edge's child side: a or one of its ancestors
        while rng.random() < 0.6 and base[x]["par"] in base:
            x = base[x]["par"]
        if "lam" not in cfg[v]:  # guided-bfs: (u, v) commands
            return rng.choice(((a, b), (a, b), (a, rng.choice(nodes)),
                               (a, [b]), (a, b, x), NONE))
        return rng.choice((
            NONE, (a, b), (a, [b], x, label(a), label(x)), "junk",
            (a, b, x, label(a), label(x)),
            (a, b, x, label(a), label(x)),
            (a, b, x, label(a), label(x))))

    shared = payload(rng.choice(nodes)) if rng.random() < 0.4 else None
    for v in nodes:
        cfg[v]["bc"] = shared if shared is not None else payload(v)


def _outcome(fn, *args):
    """``fn(*args)``'s result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def _oracle_state(proto):
    task = getattr(proto, "layers", [proto])[-1]
    oracle = getattr(task, "_oracle", None)
    if oracle is None:
        return None
    return (oracle.consults, oracle.misses, oracle.retired,
            dict(oracle._memo), task._issued)


class TestEngineFastPaths:
    def test_slot_rule_declared(self):
        for proto in (AdHocBFSProtocol(), MalleableTreeProtocol()):
            assert (type(proto).fast_step_slots
                    is not Protocol.fast_step_slots)
        # every guided layer compiles its own rule
        net = random_connected_graph(8, seed=1, weighted=True)
        for factory in (guided_bfs_protocol, guided_mst_protocol,
                        guided_mdst_protocol):
            proto = factory()
            schema = proto.register_spec(net).schema()
            for layer in proto.layers:
                assert layer.fast_step_slots(schema) is not None, (
                    proto.name, layer.name)

    @pytest.mark.parametrize("factory", sorted(_FAST_PATH_FACTORIES))
    def test_fast_step_slots_equals_step(self, factory):
        """Compiled rule ≡ the referee's name-keyed ``step`` node by
        node, on corrupted states.

        Each path gets its own protocol instance, so the oracle side
        effects (consults, the issued-key latch, retirements) are
        compared too rather than shared."""
        guided = factory.startswith("guided")
        fast_proto = _FAST_PATH_FACTORIES[factory]()
        step_proto = _FAST_PATH_FACTORIES[factory]()
        net = random_connected_graph(12, seed=13, weighted=guided)
        schema = fast_proto.register_spec(net).schema()
        rule = fast_proto.fast_step_slots(schema)
        step = referee_step(step_proto)
        legit = get_certifier(factory).legitimate(net) if guided else None
        for seed in range(40 if guided else 4):
            cfg = random_configuration(net, fast_proto, seed=seed)
            if guided:
                rng = random.Random(seed)
                base = (legit if seed % 4 == 0 else _snapshot_after(
                    factory, net, seed, rng.choice((2, 4, 8, 16, 32))))
                _corrupt_guided(net, cfg, base, rng)
            rows = {v: [cfg[v][name] for name in schema.names]
                    for v in net.nodes}
            views = {v: schema.view(rows[v]) for v in net.nodes}
            for v in net.nodes:
                nbr_rows = tuple((u, rows[u]) for u in net.neighbors(v))
                want = _outcome(step, NodeView(net, v, cfg))
                if isinstance(want, dict):
                    want = {schema.index[k]: val for k, val in want.items()}
                got = _outcome(rule, net, views, v, rows[v], nbr_rows)
                assert (got or None) == want, (seed, v)
            assert _oracle_state(fast_proto) == _oracle_state(step_proto)

    @pytest.mark.parametrize("flushed,retires", [
        (("stale", "decision"), True), (("junk", "payload"), False)],
        ids=["issued-payload", "junk-payload"])
    def test_swap_flush_retires_only_the_issued_decision(self, flushed,
                                                        retires):
        """The one-shot retirement on both evaluation paths: a root whose
        acked SWAP phase left the digest it was issued under unchanged
        retires that decision when its flushed ``bc`` is the issued
        payload (a genuine stale decision), and keeps it when a junk
        ``bc`` replaced the payload (the decision never ran).  Either
        way the flush clears the issued-decision latch."""
        cert = get_certifier("guided-mst")
        net = cert.build_network(8, seed=2)
        cfg = cert.legitimate(net)
        issued = ("stale", "decision")
        for v in net.nodes:
            cfg[v].update(ph=SWAP, ack=True, bc=flushed)
        for path in ("slot", "referee"):
            proto = cert.protocol()
            task = proto.layers[-1]
            sim = Simulator(net, proto, config=cfg)
            root = next(v for v in net.nodes
                        if sim.config[v]["par"] is NONE)
            key = DigestLayerReferee(task._digest).expected(
                NodeView(net, root, sim.config))
            task._oracle._memo[key] = issued
            task._issued = (key, issued)
            if path == "slot":
                delta = sim._slot_rule(net, sim.config, root,
                                       sim.rows[root], sim._nbr_rows[root])
                delta = {sim.schema.names[i]: val
                         for i, val in delta.items()}
            else:
                delta = referee_step(proto)(NodeView(net, root, sim.config))
            assert delta == {"ph": WORK, "ack": False, "bc": NONE}, path
            assert task._oracle.retired == int(retires), path
            assert task._oracle._memo[key] == (None if retires
                                               else issued), path
            assert task._issued is None, path

    @pytest.mark.parametrize("task_cls,step_only", [
        (GuidedMST, _StepOnlyMST), (GuidedMDST, _StepOnlyMDST)])
    def test_compiled_rule_matches_step_adapter_on_the_engine(
            self, task_cls, step_only):
        """The compiled rule and the referee's ``step`` (through the slot
        adapter) drive the plain engine (no cross-checking scheduler,
        whose own referee calls would perform the oracle side effects)
        to the same configuration and the same oracle counters.  Just
        after the root issues, the test issues a junk decision in its
        place — memo entry, latch and every ``bc`` — so some runs flush
        a SWAP that moved nothing and the one-shot retirement is
        exercised."""
        junk = (1, 2, 3, ((99, 0),), "junk")
        retired = 0
        for seed in range(6):
            outcomes = []
            for cls in (task_cls, step_only):
                net = random_connected_graph(8, seed=seed, weighted=True)
                proto = _guided(cls, "guided")
                task = proto.layers[-1]
                sim = Simulator(net, proto, config=random_configuration(
                    net, proto, seed=seed))
                sim.run(max_rounds=5000 * net.n,
                        stop_when=lambda *_, t=task: t._issued is not None)
                key = task._issued[0]
                task._oracle._memo[key] = junk
                task._issued = (key, junk)
                for v in net.nodes:
                    sim.overwrite(v, {"bc": junk})
                result = sim.run(max_rounds=5000 * net.n)
                oracle = task._oracle
                outcomes.append((
                    result.moves, result.silent,
                    {v: dict(sim.config[v]) for v in net.nodes},
                    (oracle.consults, oracle.misses, oracle.retired)))
            assert outcomes[0] == outcomes[1], seed
            retired += outcomes[0][3][2]
        assert retired >= 1


# ----------------------------------------------------------------------
# space accounting
# ----------------------------------------------------------------------


class TestSpaceAccounting:
    def test_rows_cover_all_tasks_and_bounds_hold(self):
        rows = space_rows(sizes=(16, 64), seed=1)
        tasks = {r.task for r in rows}
        assert tasks == set(CERTIFIERS)
        for r in rows:
            assert r.max_bits > 0
            # generous constant: the normalized column is max_bits over
            # log2(N) (log2(N)^2 for MST); the paper's claim is that it
            # stays bounded, and these instances sit far below 64
            assert r.normalized < 64, r

    def test_mst_certificate_dominates_log_tasks(self):
        mst = measure_task(CERTIFIERS["guided-mst"], 64, seed=1)
        bfs = measure_task(CERTIFIERS["guided-bfs"], 64, seed=1)
        assert mst.max_bits > bfs.max_bits
        assert "2" in mst.bound and "2" not in bfs.bound

    def test_normalized_ratio_does_not_grow(self):
        """The measured bits track the claimed growth: the normalized
        column must not increase from n=16 to n=256."""
        for task in CERTIFIERS:
            small = measure_task(CERTIFIERS[task], 16, seed=1)
            big = measure_task(CERTIFIERS[task], 256, seed=1)
            assert big.normalized <= small.normalized * 1.05, task


# ----------------------------------------------------------------------
# the model checker
# ----------------------------------------------------------------------


class _Flipper(StepRule, Protocol):
    """Deliberate livelock: two nodes forever copying each other's bit."""

    name = "flipper"

    def register_spec(self, net):
        return RegisterSpec([flag_field("b")])

    def step(self, view):
        for _, st in view.nbr_states():
            if st["b"] == view["b"]:
                return {"b": not view["b"]}
        return None


class TestModelChecker:
    def test_closure_at_legit_config(self):
        cert = get_certifier("sst")
        net = cert.build_network(4, seed=1)
        res = explore(net, cert.protocol(), [cert.legitimate(net)])
        assert res.states == 1 and res.silent_states == 1 and res.ok

    def test_detects_livelock(self):
        net = ring(4, seed=1)
        proto = _Flipper()
        start = {v: {"b": False} for v in net.nodes}
        res = explore(net, proto, [start], max_states=5000)
        assert res.cycle is not None
        assert not res.ok

    def test_detects_illegal_silence(self):
        cert = get_certifier("sst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        legit = cert.legitimate(net)

        def never_legal(config):
            return False

        res = explore(net, proto, [legit], is_legal=never_legal)
        assert res.illegal_silent and not res.ok

    @pytest.mark.parametrize("task,states,transitions", [
        ("sst", 1714, 12279), ("nca-build", 7904, 66519)],
        ids=["sst", "nca-build"])
    def test_closure_and_convergence_under_all_daemons(self, task, states,
                                                       transitions):
        """The n = 4 explorations that complete at the ``certify
        modelcheck`` defaults (seed 1, one corruption draw, fresh
        instances, 200,000 states), pinned: the explored graph is a
        function of the rule alone, so any change to it is a semantic
        change."""
        res = check_certifier(CERTIFIERS[task], n=4, seed=1,
                              corruption_draws=1, max_states=200_000)
        assert res.summary() == (
            f"OK: {states} states, {transitions} transitions, 1 silent, "
            f"starts covered {res.starts}/{res.starts}")

    def test_sst_expands_every_start(self):
        res = check_certifier(CERTIFIERS["sst"], n=4, seed=1,
                              corruption_draws=1, max_states=200_000)
        assert res.ok
        assert (res.starts_expanded, res.starts) == (11, 11)
        assert res.summary().endswith("starts covered 11/11")

    def test_truncation_reports_unexpanded_starts(self):
        cert = get_certifier("sst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        starts = [random_configuration(net, proto, seed=s) for s in (1, 2)]
        res = explore(net, proto, [*starts, starts[0]], max_states=1)
        assert res.truncated
        assert (res.starts_expanded, res.starts) == (1, 2)
        assert res.summary().endswith("starts covered 1/2")

    def test_guided_bfs_bounded_exploration_is_clean(self):
        res = check_certifier(CERTIFIERS["guided-bfs"], n=4,
                              corruption_draws=1, max_corruptions=12,
                              max_states=20_000)
        # heavy re-election starts may truncate the budget; what matters
        # is that no violation exists in the explored region
        assert res.ok_except_truncation, res.summary()


# ----------------------------------------------------------------------
# campaign + workload integration
# ----------------------------------------------------------------------


class TestIntegration:
    def test_certification_campaign_records_locally_certified(self):
        from repro.experiments.campaigns import get_campaign
        from repro.experiments.runner import run_spec
        campaign = get_campaign("certification")
        assert len(campaign) >= 12
        spec = next(s for s in campaign.specs if s.protocol == "sst")
        record = run_spec(spec, root_seed=0)
        assert record["metrics"]["locally_certified"] is True

    def test_guided_workloads_registered(self):
        from repro.obs.workloads import WORKLOADS
        for task in ("guided-bfs", "guided-mst", "guided-mdst"):
            for n in (48, 128, 512):
                name = f"smoke-{task}-{n}" if n == 48 else f"{task}-{n}"
                assert WORKLOADS[name].protocol == task

    def test_guided_smoke_workload_measures(self):
        from repro.obs.workloads import WORKLOADS, execute
        run = execute(WORKLOADS["smoke-guided-bfs-48"])
        assert run.moves > 0 and run.seconds > 0

    def test_cli_certify_check_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "certify", "check", "--smoke",
             "--task", "sst", "--task", "guided-bfs"],
            capture_output=True, text=True, env=_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "certify check ok" in proc.stdout

    def test_cli_certify_space_markdown(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "certify", "space",
             "--sizes", "16", "--format", "markdown", "--task", "sst"],
            capture_output=True, text=True, env=_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "O(log n)" in proc.stdout

    def test_cli_certify_modelcheck(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "certify", "modelcheck",
             "--task", "sst", "--n", "4"],
            capture_output=True, text=True, env=_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


class TestModelCheckerFoundRegressions:
    """States the exhaustive checker reached that used to wedge or cycle;
    each must now drain to a silent legal configuration under any daemon."""

    def _mst_stale_payload_state(self):
        """The PR-4 guided-mst livelock witness: a stale SWAP broadcast
        commands endpoint 10 to re-parent onto its own child 14."""
        from repro.certify.oracle import config_digest
        from repro.core.tasks import ORACLE_DIGEST_FIELDS
        cert = get_certifier("guided-mst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        bc = (10, 14, 10, ((5, 1),), ((5, 1),))
        rows = {
            5: dict(rid=5, par=NONE, d=0, s=NONE, mark=True, swt=NONE,
                    hv=10, lam=((5, 0),), ph="SWAP", ack=False,
                    cand=NONE, bc=bc),
            10: dict(rid=5, par=5, d=1, s=3, mark=False, swt=14,
                     hv=13, lam=((5, 1),), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
            13: dict(rid=5, par=10, d=NONE, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 2),), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
            14: dict(rid=5, par=10, d=2, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 1), (14, 0)), ph="SWAP", ack=True,
                     cand=NONE, bc=bc),
        }
        for v, ver in config_digest(net, rows, ORACLE_DIGEST_FIELDS).items():
            rows[v]["ver"] = ver
        return net, proto, rows

    @staticmethod
    def _endpoint_verdict(net, proto, cfg, v):
        """``(feasible, done)`` at chain endpoint ``v``: whether its
        commanded re-parent is still feasible, and whether the compiled
        chain hook acks its SWAP part as complete."""
        schema = proto.register_spec(net).schema()
        role, done, _ = proto.layers[-1].chain_slot_hooks(schema)
        rows = {u: schema.row_of(cfg[u]) for u in net.nodes}
        config = {u: schema.view(rows[u]) for u in net.nodes}
        nbr_rows = tuple((u, rows[u]) for u in net.neighbors(v))
        bc = cfg[v]["bc"]
        target = cfg[bc[1]]
        feasible = _endpoint_feasible_of(v, cfg[v]["lam"], bc,
                                         target["par"], target["lam"])
        chain_role = role(net, config, v, rows[v], nbr_rows, bc)
        return feasible, done(net, config, v, rows[v], nbr_rows, bc,
                              chain_role)

    def test_endpoint_refuses_own_descendant_target(self):
        net, proto, cfg = self._mst_stale_payload_state()
        feasible, done = self._endpoint_verdict(net, proto, cfg, 10)
        assert not feasible
        # the impossible command is acked as complete, not waited on
        assert done

    def test_stale_payload_state_drains_to_legal_silence(self):
        from repro.baselines import kruskal_mst
        from repro.core.swap import tree_of_config
        net, proto, cfg = self._mst_stale_payload_state()
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=5000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_stale_payload_state_has_no_daemon_cycle(self):
        """Fresh-instance semantics, as its siblings.  The shared-instance
        mode reports one illegal silent state from this witness: a memo
        artifact (EXPERIMENTS.md, "Model-checker modes")."""
        from repro.core.tasks import guided_mst_protocol
        net, proto, cfg = self._mst_stale_payload_state()
        res = explore(net, proto, [cfg], max_states=150_000,
                      protocol_factory=guided_mst_protocol,
                      is_legal=lambda config: proto.is_legal(net, config))
        assert res.cycle is None, "livelock regression"
        assert not res.illegal_silent
        assert res.summary() == (
            "OK: 7050 states, 44151 transitions, 1 silent, "
            "starts covered 1/1")

    def _mst_stale_digest_state(self):
        """The second PR-4 guided-mst livelock witness: node 14 defected
        to a starved island, node 10's digest register is stale, and the
        root kept replaying a memoized SWAP payload from the stale key."""
        from repro.certify.oracle import config_digest
        from repro.core.tasks import ORACLE_DIGEST_FIELDS
        cert = get_certifier("guided-mst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        bc = (14, 5, 10, ((5, 1), (14, 0)), ((5, 1),))
        rows = {
            5: dict(rid=5, par=NONE, d=0, s=3, mark=False, swt=NONE,
                    hv=10, lam=((5, 0),), ph="SWAP", ack=False,
                    cand=NONE, bc=bc),
            10: dict(rid=5, par=5, d=1, s=2, mark=False, swt=NONE,
                     hv=13, lam=((5, 1),), ph="WORK", ack=True,
                     cand=NONE, bc=NONE),
            13: dict(rid=5, par=10, d=2, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 2),), ph="WORK", ack=True,
                     cand=NONE, bc=NONE),
            14: dict(rid=14, par=NONE, d=0, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 1), (14, 0)), ph="WORK", ack=False,
                     cand=NONE, bc=NONE),
        }
        # deliberately stale digests: computed as if 14 were still 10's
        # child (the starved-repair situation the checker reached)
        stale = {u: dict(s) for u, s in rows.items()}
        stale[14]["par"] = 10
        for v, ver in config_digest(net, stale,
                                    ORACLE_DIGEST_FIELDS).items():
            rows[v]["ver"] = ver
        return net, proto, rows

    def test_stale_digest_state_drains_to_legal_silence(self):
        from repro.baselines import kruskal_mst
        from repro.core.swap import tree_of_config
        net, proto, cfg = self._mst_stale_digest_state()
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=5000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_stale_digest_state_has_no_daemon_cycle(self):
        net, proto, cfg = self._mst_stale_digest_state()
        res = explore(net, proto, [cfg], max_states=200_000,
                      is_legal=lambda config: proto.is_legal(net, config))
        assert res.cycle is None, "starved-digest replay livelock regression"
        assert not res.illegal_silent

    def _mst_junk_label_payload_state(self):
        """The third PR-4 guided-mst livelock witness: a payload whose
        frozen lam_a is junk defeats the label-based subtree check while
        the commanded target is again the endpoint's current child."""
        from repro.certify.oracle import config_digest
        from repro.core.tasks import ORACLE_DIGEST_FIELDS
        cert = get_certifier("guided-mst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        junk = ((5, 0), (10, 0), (5, 1))
        bc = (10, 14, 10, junk, junk)
        rows = {
            5: dict(rid=5, par=NONE, d=0, s=NONE, mark=True, swt=NONE,
                    hv=10, lam=((5, 0),), ph="SWAP", ack=False,
                    cand=NONE, bc=bc),
            10: dict(rid=5, par=5, d=1, s=3, mark=False, swt=14,
                     hv=NONE, lam=((5, 1),), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
            13: dict(rid=5, par=10, d=2, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 1), (13, 0)), ph="SWAP", ack=True,
                     cand=NONE, bc=bc),
            14: dict(rid=5, par=10, d=2, s=1, mark=False, swt=NONE,
                     hv=NONE, lam=((5, 1), (14, 0)), ph="SWAP", ack=True,
                     cand=NONE, bc=bc),
        }
        for v, ver in config_digest(net, rows, ORACLE_DIGEST_FIELDS).items():
            rows[v]["ver"] = ver
        return net, proto, rows

    def test_junk_label_payload_refused(self):
        net, proto, cfg = self._mst_junk_label_payload_state()
        feasible, done = self._endpoint_verdict(net, proto, cfg, 10)
        # both the lam_a-identity check and the own-child check refuse
        assert not feasible
        assert done

    def test_junk_label_payload_state_drains(self):
        from repro.baselines import kruskal_mst
        from repro.core.swap import tree_of_config
        net, proto, cfg = self._mst_junk_label_payload_state()
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=5000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_dead_chain_broadcast_drains(self):
        """Fourth witness (found in review): the endpoint of a crafted
        broadcast refuses, and inner on-chain nodes must cascade the
        abort upward instead of waiting forever for their former chain
        child — otherwise the phase wedges into silent illegality."""
        from repro.baselines import kruskal_mst
        from repro.certify.oracle import config_digest
        from repro.core import bfs_tree
        from repro.core.swap import MalleableTreeProtocol, tree_of_config
        from repro.core.tasks import ORACLE_DIGEST_FIELDS
        from repro.core.tasks import guided_mst_protocol as factory
        from repro.labeling.nca import NCALabeling

        net = random_connected_graph(8, seed=3, weighted=True)
        proto = factory()
        tree = bfs_tree(net, root=net.min_id)
        base = MalleableTreeProtocol().legal_configuration(net, tree)
        cfg = proto.initial_configuration(net)
        for v in net.nodes:
            cfg[v].update(base[v])
        scheme = NCALabeling(net, tree)
        for v in net.nodes:
            hv = scheme.heavy[v]
            cfg[v]["hv"] = NONE if hv is None else hv
            cfg[v]["lam"] = tuple(scheme.labels[v].segments)
        root, z = tree.root, max(net.nodes, key=tree.depth)
        bc = (z, 999, root, cfg[z]["lam"] + ((9, 0),), cfg[root]["lam"])
        for v in net.nodes:
            cfg[v].update(ph="SWAP", ack=False, cand=NONE, bc=bc)
        for v, ver in config_digest(net, cfg,
                                    ORACLE_DIGEST_FIELDS).items():
            cfg[v]["ver"] = ver

        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=8000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_junk_label_payload_state_has_no_daemon_cycle(self):
        """Markov (fresh-instance) semantics: the state machine itself has
        no daemon cycle from the witness.  The shared-instance mode can
        still report one here — cross-branch memo pollution realizes an
        oracle history no single execution can (see modelcheck docstring);
        the drain test above covers the real memoized semantics."""
        from repro.core.tasks import guided_mst_protocol
        net, proto, cfg = self._mst_junk_label_payload_state()
        res = explore(net, proto, [cfg], max_states=200_000,
                      protocol_factory=guided_mst_protocol,
                      is_legal=lambda config: proto.is_legal(net, config))
        assert res.cycle is None, "junk-label payload livelock regression"
        assert not res.illegal_silent

    def _mst_nested_switch_state(self):
        """The fifth guided-mst witness: a silent illegal state on K4.

        The SWAP chain of ``bc`` is 14 -> 5, then 13 -> 14.  Node 14
        holds its chain request ``swt = 5`` but sits below node 13,
        which holds a *foreign* request ``swt = 10``: the two switch
        initiators are nested.  14's distance is pruned (its parent has
        a pending switch) and 13's size is pruned (it is marked as 14's
        old parent), so neither switch can ever become ready."""
        from repro.certify.oracle import config_digest
        from repro.core.tasks import ORACLE_DIGEST_FIELDS
        cert = get_certifier("guided-mst")
        net = cert.build_network(4, seed=1)
        proto = cert.protocol()
        bc = (14, 5, 13, ((5, 2),), ((5, 1),))
        rows = {
            5: dict(rid=5, par=NONE, d=0, s=NONE, mark=True, swt=NONE,
                    hv=13, lam=((5, 0),), ph="SWAP", ack=False,
                    cand=NONE, bc=bc),
            10: dict(rid=5, par=5, d=1, s=NONE, mark=True, swt=NONE,
                     hv=NONE, lam=((5, 0), (10, 0)), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
            13: dict(rid=5, par=5, d=1, s=NONE, mark=True, swt=10,
                     hv=14, lam=((5, 1),), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
            14: dict(rid=5, par=13, d=NONE, s=1, mark=False, swt=5,
                     hv=10, lam=((5, 2),), ph="SWAP", ack=False,
                     cand=NONE, bc=bc),
        }
        for v, ver in config_digest(net, rows, ORACLE_DIGEST_FIELDS).items():
            rows[v]["ver"] = ver
        return net, proto, rows

    def test_nested_switch_state_drains_to_legal_silence(self):
        net, proto, cfg = self._mst_nested_switch_state()
        assert sorted(net.edges) == [(5, 10), (5, 13), (5, 14), (10, 13),
                                     (10, 14), (13, 14)]
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=5000 * net.n)
        assert result.silent
        assert proto.is_legal(net, sim.config)

    def test_nested_switch_state_has_no_daemon_cycle(self):
        from repro.core.tasks import guided_mst_protocol
        net, proto, cfg = self._mst_nested_switch_state()
        res = explore(net, proto, [cfg], max_states=200_000,
                      is_legal=lambda config: proto.is_legal(net, config),
                      protocol_factory=guided_mst_protocol)
        assert res.ok, res.summary()
