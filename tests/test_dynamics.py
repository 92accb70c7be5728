"""The dynamic-network & churn scenario engine (ROADMAP item 3).

Six pillars:

* **Event model round-trip** — events serialize to canonical JSON,
  stream through JSONL files byte-identically, and reject malformed
  payloads loudly.
* **Schedule determinism** — the same seed over the same starting
  network yields a byte-identical event stream, for every schedule kind,
  pinned by a golden hash; the linear-time feasibility helpers equal
  the per-candidate BFS referee they replaced.
* **Revision validity** — :func:`revise` refuses every class of invalid
  event (unknown nodes, duplicate/missing edges, disconnecting removals,
  cut-vertex crashes, ``n_bound`` exhaustion) with a clear
  :class:`EventError`, and the engine refuses sharded simulators and
  mid-round application up front.
* **Incremental ≡ rescan across topology events** — after every
  applied event (``check=True``) the incrementally maintained enabled
  set must equal a from-scratch rescan, and at every subsequent
  scheduler selection the cross-checking referee also compares each
  cached proposal with ``step`` — for five protocol families under
  every daemon, on the adapter and compiled-slot engine paths.
* **Incremental ≡ whole-network verdicts** — ``run_churn`` re-verifies
  only stale nodes, and with ``check=True`` its kept rejecting set must
  equal the full verifier's after every round, for every churn kind.
* **Churn phase integration** — ``execute()`` runs the churn phase with
  super-stabilization metrics, traces carry schema-v2 event rows
  byte-identically across repeats, and the fault-injection field
  validation (the satellite fix) raises ``KeyError`` on unknown names.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dim_bfs import AdHocBFSProtocol
from repro.certify.schemes import get_certifier
from repro.core.sst import SpanningTreeProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import guided_bfs_protocol, guided_mst_protocol
from repro.graphs import (
    caterpillar_graph,
    complete_graph,
    lollipop_graph,
    path_graph,
    random_connected_graph,
    random_tree_graph,
    ring,
    star_graph,
)
from repro.graphs.network import Network
from repro.runtime import (
    ALL_SCHEDULER_FACTORIES,
    Simulator,
    random_configuration,
)
from repro.runtime.dynamics import (
    ChurnSchedule,
    EdgeAdd,
    EdgeRemove,
    EventError,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    apply_event,
    dump_events,
    event_from_dict,
    load_events,
    materialize_schedule,
    revise,
    run_churn,
)
from repro.runtime.dynamics.run import _LocalVerdicts
from repro.runtime.dynamics.schedules import (
    SCHEDULE_KINDS,
    _crashable_nodes,
    _cut_structure,
    _NonEdges,
    _removable_edges,
)
from repro.runtime.faults import corrupt_nodes, inject_faults

from crosscheck import CrossCheckingScheduler
from referee_rules import SpanningTreeReferee, StepRule

# name -> (factory, weighted network needed)
FAMILIES = {
    "sst": (SpanningTreeProtocol, False),
    "adhoc-bfs": (AdHocBFSProtocol, False),
    "malleable-tree": (MalleableTreeProtocol, False),
    "guided-bfs": (guided_bfs_protocol, False),
    "guided-mst": (guided_mst_protocol, True),
}


class StepOnlySST(StepRule, SpanningTreeProtocol):
    """SST whose engine rule is the referee's name-keyed ``step``: every
    binding, including the rebinding after a topology event, compiles it
    through the test referee's ``step_to_slots`` adapter."""

    def step(self, view):
        return SpanningTreeReferee(self).step(view)


# FAMILIES plus the SST variant that pins the adapter engine path
PATH_FAMILIES = {**FAMILIES, "sst-step-only": (StepOnlySST, False)}


def _headroom_net(n=8, seed=21, weighted=False, headroom=3):
    net = random_connected_graph(n, seed=seed, weighted=weighted)
    return Network(net.nodes, net.edges,
                   weights=net.weights if weighted else None,
                   id_space=net.id_space + headroom,
                   n_bound=net.n + headroom)


# ----------------------------------------------------------------------
# event model round-trip
# ----------------------------------------------------------------------


class TestEventModel:
    def test_canonical_json_and_round_trip(self):
        events = [EdgeAdd(5, 2), EdgeRemove(7, 3), NodeCrash(4),
                  NodeJoin(9, (1, 3), init="sampled"),
                  NodeRecover(6, (2,), init="bottom"),
                  EdgeAdd(1, 2, weight=17)]
        for ev in events:
            line = ev.to_json()
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))
            assert event_from_dict(json.loads(line)) == ev

    def test_edge_events_canonicalize_endpoints(self):
        assert (EdgeAdd(5, 2).u, EdgeAdd(5, 2).v) == (2, 5)
        assert EdgeRemove(5, 2) == EdgeRemove(2, 5)
        with pytest.raises(ValueError, match="self-loop"):
            EdgeAdd(3, 3)

    def test_join_validation(self):
        with pytest.raises(ValueError, match="no attachment"):
            NodeJoin(5, ())
        with pytest.raises(ValueError, match="self-loop"):
            NodeJoin(5, (5,))
        with pytest.raises(ValueError, match="unknown init"):
            NodeJoin(5, (1,), init="zeros")
        # attachment endpoints are sorted + deduped
        assert NodeJoin(5, (3, 1, 3)).edges == (1, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "edge-weight-change", "u": 1, "v": 2})

    def test_jsonl_stream_round_trip(self, tmp_path):
        events = [EdgeAdd(1, 2), NodeCrash(3), NodeJoin(9, (1,))]
        path = tmp_path / "events.jsonl"
        dump_events(path, events)
        assert load_events(path) == events
        # byte-identical re-dump
        first = path.read_bytes()
        dump_events(path, load_events(path))
        assert path.read_bytes() == first

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(EdgeAdd(1, 2).to_json() + "\n\n" +
                        NodeCrash(3).to_json() + "\n")
        with pytest.raises(ValueError, match="blank line"):
            load_events(path)

    def test_lost_neighbors(self):
        assert EdgeRemove(2, 5).lost_neighbors(2) == {5}
        assert EdgeRemove(2, 5).lost_neighbors(5) == {2}
        assert EdgeRemove(2, 5).lost_neighbors(7) == frozenset()
        assert NodeCrash(4).lost_neighbors(1) == {4}
        assert NodeCrash(4).lost_neighbors(4) == frozenset()
        assert EdgeAdd(2, 5).lost_neighbors(2) == frozenset()
        assert NodeJoin(9, (1,)).lost_neighbors(1) == frozenset()


# ----------------------------------------------------------------------
# schedule determinism
# ----------------------------------------------------------------------


class TestScheduleDeterminism:
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_same_seed_byte_identical_stream(self, kind):
        net = _headroom_net(n=8, seed=3, headroom=4)
        a = materialize_schedule(net, kind=kind, count=6, seed=77)
        b = materialize_schedule(net, kind=kind, count=6, seed=77)
        assert [e.to_json() for e in a] == [e.to_json() for e in b]
        assert a, f"kind {kind} produced no events"

    def test_different_seeds_diverge(self):
        net = _headroom_net(n=8, seed=3, headroom=4)
        a = materialize_schedule(net, kind="mixed", count=8, seed=1)
        b = materialize_schedule(net, kind="mixed", count=8, seed=2)
        assert [e.to_json() for e in a] != [e.to_json() for e in b]

    def test_every_materialized_event_is_valid(self):
        # the schedule only draws feasible events: replaying the stream
        # through revise() must never raise
        net = _headroom_net(n=8, seed=3, headroom=4)
        for kind in SCHEDULE_KINDS:
            current = net
            for ev in materialize_schedule(net, kind=kind, count=6,
                                           seed=13):
                current = revise(current, ev)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            ChurnSchedule("edge-teleport", seed=0)

    def test_crash_recover_restores_surviving_edges(self):
        net = _headroom_net(n=8, seed=3, headroom=4)
        sched = ChurnSchedule("crash-recover", seed=5)
        crash = sched.next_event(net)
        assert isinstance(crash, NodeCrash)
        after = revise(net, crash)
        recover = sched.next_event(after)
        assert isinstance(recover, NodeRecover)
        assert recover.node == crash.node
        assert set(recover.edges) <= set(net.neighbors(crash.node))

    def test_golden_stream(self):
        # a drift in any draw (candidate order, RNG consumption) changes
        # this hash; comparing a run with itself would not notice
        net = _headroom_net(n=8, seed=3, headroom=4)
        h = hashlib.sha256()
        for kind in SCHEDULE_KINDS:
            for seed in range(5):
                for ev in materialize_schedule(net, kind=kind, count=12,
                                               seed=seed):
                    h.update(ev.to_json().encode() + b"\n")
        assert h.hexdigest() == (
            "d2df1fd96ca68a63ecb87a515742b68318d7016992ff91670aa3ac9acd2838ee")


# ----------------------------------------------------------------------
# feasibility: the linear-time helpers against the per-candidate BFS
# ----------------------------------------------------------------------


def _referee_removable_edges(net):
    """One BFS per edge: the edge is removable iff its endpoints
    reconnect without it."""
    out = []
    for u, v in net.edges:
        if net.degree(u) < 2 or net.degree(v) < 2:
            continue
        seen = {u}
        frontier = [u]
        found = False
        while frontier and not found:
            nxt = []
            for x in frontier:
                for w in net.neighbors(x):
                    if x == u and w == v:
                        continue
                    if w == v:
                        found = True
                        break
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                if found:
                    break
            frontier = nxt
        if found:
            out.append((u, v))
    return out


def _referee_crashable_nodes(net):
    """One connectivity check per node."""
    if net.n < 2:
        return []
    return [v for v in net.nodes
            if net.is_connected_subset(set(net.nodes) - {v})]


def _assert_matches_referee(net):
    assert _removable_edges(net) == _referee_removable_edges(net)
    assert _crashable_nodes(net) == _referee_crashable_nodes(net)
    view = _NonEdges(net)
    want = sorted(net.non_edges())
    assert len(view) == len(want)
    assert [view[k] for k in range(len(view))] == want
    with pytest.raises(IndexError):
        view[len(view)]


def _bowtie():
    # two triangles sharing node 3, a pendant leaf on 5, a bridge 1-7
    return Network([1, 2, 3, 4, 5, 6, 7],
                   [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5),
                    (5, 6), (1, 7)])


@st.composite
def _graphs(draw):
    """Connected graphs: a random tree, random chords, pendant leaves,
    scrambled identities."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    leaves = draw(st.integers(0, 3))
    edges |= {(draw(st.integers(0, n - 1)), n + i) for i in range(leaves)}
    ids = draw(st.permutations(range(1, n + leaves + 1)))
    return Network(ids, [(ids[a], ids[b]) for a, b in edges])


class TestFeasibility:
    @pytest.mark.parametrize("net", [
        Network([5], []),
        Network([2, 9], [(2, 9)]),
        path_graph(7, seed=1),
        ring(6, seed=2),
        complete_graph(6, seed=3),
        star_graph(6, seed=4),
        random_tree_graph(10, seed=5),
        lollipop_graph(4, 3, seed=6),
        caterpillar_graph(4, 2, seed=7),
        _bowtie(),
    ], ids=["n1", "n2", "path", "cycle", "complete", "star", "tree",
            "lollipop", "caterpillar", "bowtie"])
    def test_shapes(self, net):
        _assert_matches_referee(net)

    @settings(max_examples=150, deadline=None)
    @given(net=_graphs())
    def test_random_graphs(self, net):
        _assert_matches_referee(net)

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_along_schedules(self, kind):
        for seed in range(3):
            current = _headroom_net(n=10, seed=seed, headroom=4)
            _assert_matches_referee(current)
            for ev in materialize_schedule(current, kind=kind, count=10,
                                           seed=seed):
                current = revise(current, ev)
                _assert_matches_referee(current)

    def test_deep_path_no_recursion(self):
        n = 20_000
        bridges, cuts = _cut_structure(path_graph(n, seed=8))
        assert (len(bridges), len(cuts)) == (n - 1, n - 2)


# ----------------------------------------------------------------------
# revision validity
# ----------------------------------------------------------------------


class TestRevise:
    def test_edge_add_and_remove(self):
        net = _headroom_net(n=6, seed=4)
        u, v = sorted(net.non_edges())[0]
        grown = revise(net, EdgeAdd(u, v))
        assert grown.has_edge(u, v) and not net.has_edge(u, v)
        back = revise(grown, EdgeRemove(u, v))
        assert sorted(back.edges) == sorted(net.edges)
        # bounds ride along unchanged
        assert grown.n_bound == net.n_bound
        assert grown.id_space == net.id_space

    def test_errors(self):
        net = Network([1, 2, 3], [(1, 2), (2, 3)], n_bound=3)
        with pytest.raises(EventError, match="does not exist"):
            revise(net, EdgeAdd(1, 9))
        with pytest.raises(EventError, match="already exists"):
            revise(net, EdgeAdd(1, 2))
        with pytest.raises(EventError, match="no such edge"):
            revise(net, EdgeRemove(1, 3))
        with pytest.raises(EventError, match="disconnects"):
            revise(net, EdgeRemove(1, 2))
        with pytest.raises(EventError, match="cut vertex"):
            revise(net, NodeCrash(2))
        with pytest.raises(EventError, match="does not exist"):
            revise(net, NodeCrash(9))
        with pytest.raises(EventError, match="n_bound"):
            revise(net, NodeJoin(4, (1,)))  # no headroom
        roomy = Network([1, 2, 3], [(1, 2), (2, 3)], n_bound=4)
        with pytest.raises(EventError, match="already in use"):
            revise(roomy, NodeJoin(2, (1,)))
        with pytest.raises(EventError, match="identity space"):
            revise(roomy, NodeJoin(99, (1,)))
        with pytest.raises(EventError, match="do not exist"):
            revise(roomy, NodeJoin(4, (7,)))

    def test_weighted_edges_stay_distinct(self):
        net = _headroom_net(n=6, seed=4, weighted=True)
        u, v = sorted(net.non_edges())[0]
        grown = revise(net, EdgeAdd(u, v))
        ws = list(grown.weights.values())
        assert len(set(ws)) == len(ws)
        taken = next(iter(net.weights.values()))
        with pytest.raises(EventError, match="already used"):
            revise(net, EdgeAdd(u, v, weight=taken))


# ----------------------------------------------------------------------
# revision: the patched network against the full constructor
# ----------------------------------------------------------------------


def _referee_revise(net, event):
    """The revision as the full constructor builds it: node and edge
    lists edited, then ``Network(...)``, whose connectivity check is the
    only one (this was ``revise`` before it patched a copy)."""
    nodes = list(net.nodes)
    node_set = set(nodes)
    edges = list(net.edges)
    weights = net.weights if net.weighted else None
    disconnected = None
    if isinstance(event, EdgeAdd):
        for x in (event.u, event.v):
            if x not in node_set:
                raise EventError(f"{event}: node {x} does not exist")
        if net.has_edge(event.u, event.v):
            raise EventError(f"{event}: edge already exists")
        e = (event.u, event.v)
        edges.append(e)
        if weights is not None:
            w = event.weight if event.weight is not None \
                else max(weights.values(), default=0) + 1
            if w in weights.values():
                raise EventError(
                    f"{event}: weight {w} already used (weights are "
                    f"pairwise distinct constants)")
            weights[e] = w
    elif isinstance(event, EdgeRemove):
        if not net.has_edge(event.u, event.v):
            raise EventError(f"{event}: no such edge")
        e = (event.u, event.v)
        edges.remove(e)
        if weights is not None:
            del weights[e]
        disconnected = (f"{event}: removal disconnects the network (the "
                        f"constructions assume a connected topology; "
                        f"partition tolerance is future work)")
    elif isinstance(event, NodeCrash):
        if event.node not in node_set:
            raise EventError(f"{event}: node {event.node} does not exist")
        if net.n < 2:
            raise EventError(f"{event}: cannot crash the last node")
        nodes.remove(event.node)
        edges = [d for d in edges if event.node not in d]
        if weights is not None:
            weights = {d: w for d, w in weights.items()
                       if event.node not in d}
        disconnected = (f"{event}: crash disconnects the network (node "
                        f"{event.node} is a cut vertex; partition "
                        f"tolerance is future work)")
    else:
        if event.node in node_set:
            raise EventError(f"{event}: id {event.node} already in use")
        if not 1 <= event.node <= net.id_space:
            raise EventError(
                f"{event}: id {event.node} outside the identity space "
                f"{{1, ..., {net.id_space}}}")
        if net.n + 1 > net.n_bound:
            raise EventError(
                f"{event}: joining would exceed n_bound={net.n_bound} "
                f"(give the topology headroom — n_bound is the "
                f"incorruptible public bound the rules read)")
        missing = [a for a in event.edges if a not in node_set]
        if missing:
            raise EventError(
                f"{event}: attachment endpoints {missing} do not exist")
        nodes.append(event.node)
        for a in event.edges:
            e = (min(event.node, a), max(event.node, a))
            edges.append(e)
            if weights is not None:
                weights[e] = max(weights.values(), default=0) + 1
    try:
        return Network(nodes, edges, weights=weights,
                       id_space=net.id_space, n_bound=net.n_bound)
    except ValueError as exc:
        if disconnected is None or str(exc) != "network must be connected":
            raise
        raise EventError(disconnected) from None


def _fields(net):
    """Everything a revision must reproduce, including ``has_edge`` over
    every pair of known ids and one unknown id."""
    ids = (*net.nodes, net.id_space + 1)
    return (net.nodes, net.edges, dict(net.adjacency),
            dict(net.adjacency_sets),
            net.weights if net.weighted else None,
            net.id_space, net.n_bound, net.n, net.m,
            {(u, v): net.has_edge(u, v) for u in ids for v in ids})


def _assert_same_revision(net, event):
    """``revise`` equals the referee (or raises its exception type and
    message) and leaves ``net`` untouched; returns the revision or None."""
    before = _fields(net)
    try:
        want = _referee_revise(net, event)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            revise(net, event)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        assert _fields(net) == before
        return None
    got = revise(net, event)
    assert _fields(got) == _fields(want)
    assert _fields(net) == before
    return want


def _assert_every_split_refused_alike(net):
    for u, v in net.edges:
        _assert_same_revision(net, EdgeRemove(u, v))
    for v in net.nodes:
        _assert_same_revision(net, NodeCrash(v))


def _roomy(net, weighted, seed=0, headroom=4):
    kw = dict(id_space=net.id_space + headroom, n_bound=net.n + headroom)
    if weighted:
        return Network.with_distinct_weights(
            net.nodes, net.edges, rng=random.Random(seed), **kw)
    return Network(net.nodes, net.edges, **kw)


def _walk_schedule(net, kind, seed, count=12):
    """Draw a schedule against the referee's revisions, checking each."""
    sched = ChurnSchedule(kind, seed)
    current = net
    for _ in range(count):
        _assert_every_split_refused_alike(current)
        ev = sched.next_event(current)
        if ev is None:
            break
        current = _assert_same_revision(current, ev)
        assert current is not None, ev


def _edgeless_join():
    ev = NodeJoin(4, (1,))
    object.__setattr__(ev, "edges", ())  # bypasses the event's own check
    return ev


class TestRevisionReferee:
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_shapes_along_schedules(self, kind, weighted):
        for base in (path_graph(7, seed=1), ring(6, seed=2),
                     complete_graph(6, seed=3), star_graph(6, seed=4),
                     random_tree_graph(10, seed=5),
                     lollipop_graph(4, 3, seed=6),
                     caterpillar_graph(4, 2, seed=7), _bowtie()):
            _walk_schedule(_roomy(base, weighted, seed=8), kind, seed=9)

    @settings(max_examples=60, deadline=None)
    @given(net=_graphs(), kind=st.sampled_from(SCHEDULE_KINDS),
           seed=st.integers(0, 2 ** 16), weighted=st.booleans())
    def test_random_graphs_along_schedules(self, net, kind, seed, weighted):
        _walk_schedule(_roomy(net, weighted, seed=seed), kind, seed)

    def test_refusals_match(self):
        tight = Network([1, 2, 3], [(1, 2), (2, 3)], n_bound=3)
        roomy = Network([1, 2, 3], [(1, 2), (2, 3)], n_bound=4)
        # weights 1, 2, 3 on (1, 2), (2, 3), (3, 4)
        weighted = Network.with_distinct_weights(
            [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], n_bound=5)
        refused = [
            (tight, EdgeAdd(1, 9)),            # unknown endpoint
            (tight, EdgeAdd(1, 2)),            # existing edge
            (tight, EdgeRemove(1, 3)),         # missing edge
            (tight, EdgeRemove(1, 2)),         # disconnecting removal
            (tight, NodeCrash(2)),             # cut vertex
            (tight, NodeCrash(9)),             # unknown node
            (Network([5], []), NodeCrash(5)),  # the last node
            (tight, NodeJoin(4, (1,))),        # n_bound exhausted
            (roomy, NodeJoin(2, (1,))),        # id reuse
            (roomy, NodeRecover(2, (1,))),
            (roomy, NodeJoin(99, (1,))),       # outside the id space
            (roomy, NodeJoin(4, (7, 1))),      # unknown attachment
            (roomy, _edgeless_join()),         # the constructor's refusal
            (weighted, EdgeAdd(1, 3, weight=2)),    # duplicate weight
            (weighted, EdgeAdd(1, 3, weight=2.5)),  # duplicate once int
            (weighted, EdgeAdd(1, 3, weight=0)),    # non-positive
            (weighted, EdgeRemove(2, 3)),           # weighted bridge
        ]
        for net, ev in refused:
            assert _assert_same_revision(net, ev) is None, ev
        for ev in (EdgeAdd(1, 3, weight=7), EdgeAdd(1, 4),
                   NodeJoin(5, (1, 3)), NodeCrash(1)):
            assert _assert_same_revision(weighted, ev) is not None, ev


# ----------------------------------------------------------------------
# engine guards
# ----------------------------------------------------------------------


def _sst_sim(scheduler="central-random", **kwargs):
    net = _headroom_net(n=8, seed=21, headroom=3)
    proto = SpanningTreeProtocol()
    cfg = random_configuration(net, proto, seed=22)
    sim = Simulator(net, proto,
                    ALL_SCHEDULER_FACTORIES[scheduler](23), config=cfg,
                    **kwargs)
    assert sim.run(max_rounds=50_000).silent
    return sim


class TestApplyGuards:
    def test_refuses_sharded_simulator(self):
        from repro.graphs.implicit import build_topology
        from repro.runtime.sharding import ShardedSimulator, plan_partition

        topo = build_topology("implicit-grid", {"rows": 4, "cols": 4})
        with ShardedSimulator(topo, SpanningTreeProtocol,
                              plan_partition(topo, 2), init_seed=7) as sharded:
            with pytest.raises(ValueError, match="sharded run"):
                apply_event(sharded, EdgeAdd(1, 2))

    def test_refuses_non_simulator(self):
        with pytest.raises(TypeError, match="needs a"):
            apply_event(object(), EdgeAdd(1, 2))

    def test_refuses_mid_round(self):
        sim = _sst_sim()
        sim._pending = set()  # what an in-flight round looks like
        try:
            with pytest.raises(RuntimeError, match="mid-round"):
                apply_event(sim, NodeCrash(sorted(sim.net.nodes)[0]))
        finally:
            sim._pending = None

    def test_invalid_event_leaves_simulator_untouched(self):
        sim = _sst_sim()
        before = sim.net
        with pytest.raises(EventError):
            apply_event(sim, EdgeAdd(1, 999))
        assert sim.net is before
        assert sim.is_silent()


# ----------------------------------------------------------------------
# incremental == rescan across topology events (the PR's heart)
# ----------------------------------------------------------------------


def _churn_grid_run(proto_name, sched_name, kind, certifier_key=None):
    factory, weighted = PATH_FAMILIES[proto_name]
    net = _headroom_net(n=8, seed=21, weighted=weighted, headroom=3)
    proto = factory()
    cfg = random_configuration(net, proto, seed=22)
    sched = CrossCheckingScheduler(ALL_SCHEDULER_FACTORIES[sched_name](23))
    sim = Simulator(net, proto, sched, config=cfg)
    sched.sim = sim
    assert sim.run(max_rounds=50_000).silent

    metrics = run_churn(sim, kind=kind, waves=2, seed=9,
                        certifier_key=certifier_key, check=True)
    assert metrics["silent"]
    assert metrics["events"] >= 1
    assert sim.enabled_nodes() == sim.rescan_enabled()
    assert sched.checks > 0
    return metrics


class TestIncrementalAcrossEvents:
    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("proto_name", sorted(FAMILIES))
    @pytest.mark.parametrize("kind",
                             ["edge-flip", "crash-join", "crash-recover"])
    def test_grid(self, proto_name, sched_name, kind):
        _churn_grid_run(proto_name, sched_name, kind)

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("proto_name", [
        pytest.param("sst-step-only", id="adapter-path"),
        pytest.param("sst", id="slot-path"),
    ])
    def test_engine_paths(self, sched_name, proto_name):
        _churn_grid_run(proto_name, sched_name, "mixed")

    def test_engine_paths_agree_on_moves(self):
        # the adapter and compiled-slot paths must execute the identical
        # churn run
        outcomes = set()
        for proto_name in ("sst-step-only", "sst"):
            m = _churn_grid_run(proto_name, "central-random", "mixed")
            outcomes.add((m["resilience_rounds_total"],
                          m["resilience_moves_total"],
                          json.dumps(m["event_kinds"], sort_keys=True)))
        assert len(outcomes) == 1, outcomes

    def test_interrupt_step_fires_on_parent_loss(self):
        # crash a silent SST tree's internal node: every orphan's
        # interrupt rule must reset it to a self-root (the one
        # prioritized corrective write of the interrupt section)
        sim = _sst_sim()
        candidates = [
            v for v in sim.net.nodes
            if any(sim.config[u]["par"] == v for u in sim.net.neighbors(v))
        ]
        victim = None
        for v in candidates:
            try:
                revise(sim.net, NodeCrash(v))
            except EventError:
                continue
            victim = v
            break
        if victim is None:
            pytest.skip("no crashable internal node in this instance")
        orphans = [u for u in sim.net.neighbors(victim)
                   if sim.config[u]["par"] == victim]
        report = apply_event(sim, NodeCrash(victim), check=True)
        assert report.interrupt_writes >= len(orphans)
        for u in orphans:
            assert sim.config[u]["rid"] == u
            assert sim.config[u]["d"] == 0
        assert sim.run(max_rounds=50_000).silent

    def test_joiner_bottom_vs_sampled(self):
        for init in ("bottom", "sampled"):
            sim = _sst_sim()
            free = next(i for i in range(1, sim.net.id_space + 1)
                        if i not in set(sim.net.nodes))
            anchor = sorted(sim.net.nodes)[0]
            report = apply_event(
                sim, NodeJoin(free, (anchor,), init=init),
                rng=random.Random(3), check=True)
            assert free in sim.net.nodes
            assert report.n == sim.net.n
            assert sim.run(max_rounds=50_000).silent

    def test_run_churn_deterministic(self):
        a = _churn_grid_run("sst", "central-random", "mixed")
        b = _churn_grid_run("sst", "central-random", "mixed")
        assert a == b


class TestIncrementalVerdicts:
    """run_churn keeps the verifier's rejecting set across rounds and
    waves, re-verifying only stale nodes; with ``check=True`` it asserts
    after every round that the set equals the whole-network verdict."""

    @pytest.mark.parametrize("sched_name", ["central-random", "synchronous"])
    @pytest.mark.parametrize("proto_name", ["sst", "guided-bfs"])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_grid(self, kind, proto_name, sched_name):
        _churn_grid_run(proto_name, sched_name, kind,
                        certifier_key=proto_name)

    def test_grid_sees_rejections(self):
        # the referee is not vacuous: the grid's churn makes verdicts flip
        m = _churn_grid_run("sst", "synchronous", "mixed",
                            certifier_key="sst")
        assert m["rejections"] > 0

    def test_check_raises_on_divergence(self, monkeypatch):
        monkeypatch.setattr(_LocalVerdicts, "after_round",
                            lambda self: {-1})
        with pytest.raises(RuntimeError, match="whole-network verdict"):
            _churn_grid_run("sst", "synchronous", "mixed",
                            certifier_key="sst")

    def test_verify_subset_equals_full_pass_restricted(self):
        sim = _sst_sim()
        cert = get_certifier("sst")
        for v in sim.net.nodes[::2]:
            sim.overwrite(v, {"d": 0})
        full = cert.verify(sim.net, sim.config).rejecting
        assert full
        nodes = sim.net.nodes[1:]
        part = cert.verify(sim.net, sim.config, nodes=nodes).rejecting
        assert part == tuple(v for v in full if v in nodes)

    def test_public_bound_change_restales_every_node(self):
        # an edge added with a fresh top weight widens weight_space, a
        # bound any verdict may read: the next sample is a full pass
        net = _headroom_net(weighted=True)
        proto = SpanningTreeProtocol()
        sim = Simulator(net, proto, ALL_SCHEDULER_FACTORIES["synchronous"](1),
                        config=random_configuration(net, proto, seed=2))
        assert sim.run(max_rounds=50_000).silent
        verdicts = _LocalVerdicts(get_certifier("sst"), sim)
        verdicts.after_round()
        u, v = next((u, v) for u in net.nodes for v in net.nodes
                    if u < v and not net.has_edge(u, v))
        verdicts.after_event(apply_event(sim, EdgeAdd(u, v)))
        assert sim.net.weight_space() > net.weight_space()
        assert verdicts.stale == set(sim.net.nodes)

    def test_crash_of_a_queued_node_leaves_the_verdicts(self):
        # a node queued as stale by a wave that ran no rounds, then
        # crashed: it must leave the stale and the rejecting set alike
        sim = _sst_sim()
        cert = get_certifier("sst")
        verdicts = _LocalVerdicts(cert, sim)
        assert verdicts.after_round() == set()
        victim = next(v for v in sim.net.nodes if _crashable(sim.net, v))
        other = next(u for u in sim.net.nodes
                     if u != victim and not sim.net.has_edge(u, victim))
        verdicts.after_event(apply_event(sim, EdgeAdd(victim, other)))
        assert victim in verdicts.stale
        verdicts.after_event(apply_event(sim, NodeCrash(victim)))
        assert victim not in verdicts.stale
        sim.run_round()
        full = cert.verify(sim.net, sim.config).rejecting
        assert verdicts.after_round() == set(full)
        assert victim not in verdicts.rejecting


def _crashable(net, v):
    try:
        revise(net, NodeCrash(v))
    except EventError:
        return False
    return True


def _assert_nbr_rows_fresh(sim):
    """The incrementally rebound neighbor-row table equals a from-scratch
    one, and every entry aliases the live register row."""
    rows = sim.rows
    assert sim._nbr_rows == {
        v: tuple((u, rows[u]) for u in sim.net.neighbors(v))
        for v in sim.net.nodes}
    for nbrs in sim._nbr_rows.values():
        for u, row in nbrs:
            assert row is rows[u]


class TestIncrementalRebinding:
    def test_rows_after_every_event(self):
        """The neighbor-row table is rebound in place after every event,
        and all-dirty refreshes on the revised network settle."""
        sim = _sst_sim(scheduler="synchronous")
        sched = ChurnSchedule("mixed", seed=31)
        kinds = set()
        for _ in range(24):
            event = sched.next_event(sim.net)
            if event is None:
                break
            kinds.add(event.kind)
            apply_event(sim, event, check=True)
            _assert_nbr_rows_fresh(sim)
            sim._dirty_all = True
            assert sim.enabled_nodes() == sim.rescan_enabled()
            assert sim.run(max_rounds=50_000).silent
            assert sim.enabled_nodes() == sim.rescan_enabled()
        assert len(kinds) >= 4, kinds


# ----------------------------------------------------------------------
# fault-injection field validation (the satellite fix)
# ----------------------------------------------------------------------
# fault-injection field validation (the satellite fix)
# ----------------------------------------------------------------------


class TestFaultFieldValidation:
    def test_corrupt_nodes_rejects_unknown_fields(self):
        net = random_connected_graph(6, seed=5)
        proto = SpanningTreeProtocol()
        spec = proto.register_spec(net)
        cfg = proto.initial_configuration(net)
        with pytest.raises(KeyError, match="unknown fields.*'parent'"):
            corrupt_nodes(net, spec, cfg, [net.nodes[0]],
                          random.Random(0), field_names=["parent", "d"])
        # the valid subset still works
        out = corrupt_nodes(net, spec, cfg, [net.nodes[0]],
                            random.Random(0), field_names=["d"])
        assert set(out) == set(cfg)

    def test_inject_faults_rejects_unknown_fields(self):
        sim = _sst_sim()
        with pytest.raises(KeyError, match="unknown fields"):
            inject_faults(sim, [sim.net.nodes[0]], random.Random(0),
                          field_names=["par", "nope"])
        # nothing was written before the refusal
        assert sim.is_silent()


# ----------------------------------------------------------------------
# churn phase integration: execute(), traces, workloads
# ----------------------------------------------------------------------


class TestChurnIntegration:
    def _spec(self, **overrides):
        from repro.experiments.spec import ExperimentSpec
        base = dict(
            experiment="EXP-CHURN", protocol="sst", topology="random",
            topo_params={"n": 10, "seed": 11, "headroom": 3},
            scheduler="central-random", init="arbitrary",
            init_params={"seed": 36}, max_rounds=200_000,
            events={"kind": "mixed", "waves": 2, "check": 1})
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_execute_churn_metrics(self):
        from repro.experiments.runner import execute
        record, ctx = execute(self._spec(), root_seed=0)
        m = record["metrics"]
        assert m["churn_silent"] is True
        assert m["churn"]["events"] == 2
        assert m["churn"]["resilience_rounds_total"] >= 0
        assert "churn_locally_certified" in m
        assert "rejection_hist" in m["churn"]
        # the simulator ended on the revised network
        assert ctx["simulator"].net.n == m["churn"]["waves"][-1]["n"]

    def test_execute_records_bit_identical(self):
        from repro.experiments.runner import canonical_record, execute
        a, _ = execute(self._spec(), root_seed=0)
        b, _ = execute(self._spec(), root_seed=0)
        assert canonical_record(a) == canonical_record(b)

    def test_events_field_fingerprint_compat(self):
        from repro.experiments.spec import ExperimentSpec
        plain = ExperimentSpec(experiment="E", protocol="sst",
                               topology="ring", topo_params={"n": 6})
        # churn-free specs serialize without the field: pre-dynamics
        # fingerprints and stored spec dicts are preserved verbatim
        assert "events" not in plain.to_dict()
        churned = self._spec()
        assert churned.to_dict()["events"]["kind"] == "mixed"
        assert churned.fingerprint(0) != plain.fingerprint(0)
        assert ExperimentSpec.from_dict(churned.to_dict()) == churned

    def test_trace_v2_event_rows_byte_identical(self, tmp_path):
        from repro.experiments.runner import execute
        from repro.obs.trace import read_trace, validate_trace
        spec = self._spec(trace=1)
        paths = []
        for leg in ("a", "b"):
            d = tmp_path / leg
            d.mkdir()
            record, _ = execute(spec, root_seed=0, trace_dir=d)
            paths.append(d / record["metrics"]["trace"])
        assert validate_trace(paths[0]) == []
        assert paths[0].read_bytes() == paths[1].read_bytes()
        header, rows, end = read_trace(paths[0])
        assert header["schema"] == 2
        events = [r for r in rows if r["kind"] == "event"]
        assert len(events) == 2
        for r in events:
            assert set(r) >= {"after_round", "event", "n", "enabled"}
        # end totals cover round rows only
        rounds = [r for r in rows if r["kind"] == "round"]
        assert end["rounds"] == len(rounds)
        assert end["moves"] == sum(r["moves"] for r in rounds)

    def test_validator_rejects_misplaced_event_row(self, tmp_path):
        from repro.obs.trace import dump_line, validate_trace
        path = tmp_path / "bad.jsonl"
        path.write_text(
            dump_line({"kind": "header", "schema": 2, "protocol": "p",
                       "scheduler": "s", "n": 2, "engine": {},
                       "probes": []}) +
            dump_line({"kind": "round", "round": 1, "moves": 1,
                       "enabled_start": 1, "enabled_end": 0}) +
            dump_line({"kind": "event", "after_round": 0,
                       "event": {"kind": "edge-add"}, "n": 2,
                       "enabled": 0}) +
            dump_line({"kind": "end", "rounds": 1, "moves": 1,
                       "silent": True}))
        problems = validate_trace(path)
        assert any("after_round" in p for p in problems)

    def test_churn_campaigns_registered(self):
        from repro.experiments.campaigns import get_campaign
        smoke = get_campaign("churn-smoke")
        assert all(s.experiment == "EXP-CHURN" for s in smoke.specs)
        assert any(s.trace for s in smoke.specs)
        full = get_campaign("churn")
        protos = {s.protocol for s in full.specs}
        assert protos == {"sst", "adhoc-bfs", "guided-bfs"}
        scheds = {s.scheduler for s in full.specs}
        assert scheds == set(ALL_SCHEDULER_FACTORIES)

    def test_headroom_topo_param(self):
        from repro.experiments.registry import build_network
        net = build_network("random", {"n": 10, "seed": 1, "headroom": 4},
                            random.Random(0))
        assert net.n == 10 and net.n_bound == 14
        plain = build_network("random", {"n": 10, "seed": 1},
                              random.Random(0))
        assert plain.n_bound == 10

    def test_churn_workload_validation(self):
        from repro.obs.workloads import WORKLOADS, Workload
        assert "churn-sst-512" in WORKLOADS
        assert "smoke-churn-sst-48" in WORKLOADS
        with pytest.raises(ValueError, match="single-process"):
            Workload(name="x", protocol="sst",
                     topology="implicit-grid",
                     topo_params=(("rows", 4), ("cols", 4)),
                     init="per-node", shards=2,
                     churn=(("kind", "mixed"),))
        with pytest.raises(ValueError, match="run to silence"):
            Workload(name="x", protocol="sst",
                     topology="random", topo_params=(("n", 8),),
                     round_budget=4, churn=(("kind", "mixed"),))

    def test_churn_workload_runs(self):
        from repro.obs.workloads import WORKLOADS, execute
        runs = [execute(WORKLOADS["smoke-churn-sst-48"]) for _ in range(2)]
        assert runs[0][1:] == runs[1][1:]
        assert runs[0].silent is True
        assert runs[0].moves > 0
