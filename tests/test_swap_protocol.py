"""Distributed reproduction of Section IV: the malleable tree layer.

Three properties under test:

1. *Self-stabilizing construction*: from arbitrary configurations the layer
   reaches a silent legal configuration (a spanning tree rooted at the
   minimum identity, fully labeled with distances and sizes).
2. *Loop-free, alarm-free switching* (Fig. 1): a legal ``swt = w'`` request
   drives the three-phase local switch; at every intermediate configuration
   the parent pointers form a spanning tree AND the Lemma 4.1 verifier
   accepts — the distributed counterpart of the sequential trace tests.
3. *Recovery*: corrupted requests (including a cycle-creating target inside
   the initiator's own subtree) and mid-switch faults are detected through
   the bounded counters and repaired by reconstruction.
"""

import pytest

from repro.core import bfs_tree, random_spanning_tree
from repro.core.swap import (
    MalleableTreeProtocol,
    malleable_labels_of_config,
    tree_of_config,
)
from repro.graphs import (
    complete_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    random_connected_graph,
    ring,
    theta_graph,
)
from repro.labeling.malleable import MalleablePLS
from repro.runtime import (
    ALL_SCHEDULER_FACTORIES,
    NONE,
    Simulator,
    SynchronousScheduler,
    corrupt_random_nodes,
    random_configuration,
)

from crosscheck import CrossCheckingScheduler

NETS = [
    ring(8, seed=1),
    grid_graph(3, 3, seed=2),
    theta_graph([3, 4, 5], seed=3),
    lollipop_graph(4, 4, seed=4),
    random_connected_graph(12, seed=5),
]

IDS = [f"g{i}n{n.n}" for i, n in enumerate(NETS)]


def legal_sim(net, tree=None, scheduler=None, **kw):
    proto = MalleableTreeProtocol()
    t = tree if tree is not None else bfs_tree(net)
    cfg = proto.legal_configuration(net, t)
    return proto, Simulator(net, proto, scheduler, config=cfg, **kw)


class TestConstruction:
    @pytest.mark.parametrize("net", NETS, ids=IDS)
    def test_from_arbitrary_configurations(self, net):
        proto = MalleableTreeProtocol()
        for seed in range(5):
            cfg = random_configuration(net, proto, seed=seed)
            sim = Simulator(net, proto, config=cfg)
            result = sim.run(max_rounds=60 * net.n + 200)
            assert result.silent, seed
            assert proto.is_legal(net, sim.config), seed

    @pytest.mark.parametrize("name", sorted(ALL_SCHEDULER_FACTORIES))
    def test_under_every_scheduler(self, name):
        net = random_connected_graph(10, seed=6)
        proto = MalleableTreeProtocol()
        cfg = random_configuration(net, proto, seed=7)
        sched = ALL_SCHEDULER_FACTORIES[name](seed=8)
        sim = Simulator(net, proto, sched, config=cfg)
        result = sim.run(max_rounds=20_000)
        assert result.silent, name
        assert proto.is_legal(net, sim.config), name

    def test_legal_configuration_is_silent(self):
        net = random_connected_graph(12, seed=9)
        for seed in range(3):
            t = random_spanning_tree(net, seed=seed, root=net.min_id)
            proto, sim = legal_sim(net, t)
            assert sim.is_silent()
            assert proto.is_legal(net, sim.config)

    def test_legal_non_min_rooted_tree_rebuilds(self):
        """A tree rooted elsewhere is not legal for the election layer: the
        min-id node re-roots the tree."""
        net = path_graph(6, seed=10)
        other = max(net.nodes)
        t = bfs_tree(net, root=other)
        proto, sim = legal_sim(net, t)
        result = sim.run(max_rounds=60 * net.n)
        assert result.silent
        assert proto.is_legal(net, sim.config)


class TestSwitching:
    def _watch(self, net, proto):
        """Invariant: parent map is always a spanning tree (loop-freeness)
        and the Lemma 4.1 verifier accepts every configuration."""
        pls = MalleablePLS()

        def invariant(n, cfg):
            try:
                tree_of_config(n, cfg)
            except ValueError:
                return False
            return pls.verify(n, malleable_labels_of_config(n, cfg)).accepted

        return invariant

    def _legal_local_switch(self, net, tree):
        """Some (v, w') with w' a non-parent neighbor outside v's subtree."""
        for v in net.nodes:
            if tree.parent(v) is None:
                continue
            sub = tree.subtree_nodes(v)
            for w2 in net.neighbors(v):
                if w2 != tree.parent(v) and w2 not in sub:
                    return v, w2
        return None

    @pytest.mark.parametrize("net", NETS, ids=IDS)
    def test_local_switch_loop_free_and_alarm_free(self, net):
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        pick = self._legal_local_switch(net, tree)
        if pick is None:
            pytest.skip("no legal local switch in this instance")
        v, w2 = pick
        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, SynchronousScheduler(), config=cfg,
                        invariant=self._watch(net, proto))
        sim.overwrite(v, {"swt": w2})
        result = sim.run(max_rounds=30 * net.n)
        assert result.silent
        assert result.invariant_violations == 0
        new_tree = tree_of_config(net, sim.config)
        assert new_tree.parent(v) == w2
        expected = tree.edges()
        expected.discard(tuple(sorted((v, tree.parent(v)))))
        expected.add(tuple(sorted((v, w2))))
        assert new_tree.edges() == expected
        # the final configuration carries the full redundant labeling
        sizes = new_tree.subtree_sizes()
        for u in net.nodes:
            assert sim.config[u]["d"] == new_tree.depth(u)
            assert sim.config[u]["s"] == sizes[u]

    def test_switch_rounds_linear(self):
        """One local switch completes in O(n) rounds (Section IV claim)."""
        rounds = []
        for n in (8, 16, 32):
            net = ring(n, seed=11, scramble_ids=False)
            proto = MalleableTreeProtocol()
            tree = bfs_tree(net)
            pick = self._legal_local_switch(net, tree)
            assert pick is not None
            v, w2 = pick
            cfg = proto.legal_configuration(net, tree)
            sim = Simulator(net, proto, SynchronousScheduler(), config=cfg)
            sim.overwrite(v, {"swt": w2})
            result = sim.run(max_rounds=50 * n)
            assert result.silent
            rounds.append(result.rounds)
        # linear-ish growth: doubling n at most ~doubles the rounds
        assert rounds[2] <= 3 * rounds[1] + 8
        assert rounds[1] <= 3 * rounds[0] + 8

    def test_chain_switch_realizes_t_plus_e_minus_f(self):
        """Drive the full Fig. 1(a) chain: each node re-parents onto its
        former chain child once that child has completed."""
        net = theta_graph([4, 5], seed=12)
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        e = tree.non_tree_edges()[0]
        f = tree.fundamental_cycle_edges(e)[-1]
        # compute the chain (as the task layer does via NCA labels)
        fx, fy = f
        x = fx if tree.parent(fx) == fy else fy
        detached = tree.subtree_nodes(x)
        a = e[0] if e[0] in detached else e[1]
        b = e[1] if a == e[0] else e[0]
        chain = []
        y = a
        while y != x:
            chain.append(y)
            y = tree.parent(y)
        chain.append(x)

        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, SynchronousScheduler(), config=cfg,
                        invariant=self._watch(net, proto))
        target = b
        for y in chain:
            sim.overwrite(y, {"swt": target})
            result = sim.run(max_rounds=40 * net.n,
                             stop_when=lambda n, c, y=y, t=target:
                             c[y]["par"] == t and c[y]["swt"] is NONE)
            assert result.stopped_by_predicate or result.silent
            target = y
        result = sim.run(max_rounds=40 * net.n)
        assert result.silent
        assert result.invariant_violations == 0
        new_tree = tree_of_config(net, sim.config)
        assert new_tree.edges() == (tree.edges() | {tuple(sorted(e))}) - {tuple(sorted(f))}


class TestRecovery:
    def test_cycle_creating_request_recovers(self):
        """A corrupted swt pointing inside the initiator's own subtree
        creates a parent cycle at switch time; the bounded counters detect
        it and the layer rebuilds a legal tree."""
        net = random_connected_graph(12, extra_edges=20, seed=13)
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        found = None
        for v in net.nodes:
            if tree.parent(v) is None:
                continue
            sub = tree.subtree_nodes(v)
            inside = [u for u in net.neighbors(v)
                      if u in sub and u != v and u != tree.parent(v)]
            if inside:
                found = (v, inside[0])
                break
        if found is None:
            pytest.skip("no subtree-internal neighbor in this instance")
        v, bad_target = found
        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, config=cfg)
        sim.overwrite(v, {"swt": bad_target})
        result = sim.run(max_rounds=100 * net.n + 400)
        assert result.silent
        assert proto.is_legal(net, sim.config)

    def test_mid_switch_fault_recovers(self):
        net = random_connected_graph(12, seed=14)
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        pick = None
        for v in net.nodes:
            if tree.parent(v) is None:
                continue
            sub = tree.subtree_nodes(v)
            cands = [u for u in net.neighbors(v)
                     if u != tree.parent(v) and u not in sub]
            if cands:
                pick = (v, cands[0])
                break
        assert pick is not None
        v, w2 = pick
        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, config=cfg)
        sim.overwrite(v, {"swt": w2})
        sim.run_round()
        sim.run_round()  # mid-flight
        corrupted, _ = corrupt_random_nodes(net, sim.spec, sim.config,
                                            k=3, seed=15)
        sim2 = Simulator(net, proto, config=corrupted)
        result = sim2.run(max_rounds=100 * net.n + 400)
        assert result.silent
        # after recovery the configuration is a legal labeled tree
        assert proto.is_legal(net, sim2.config)

    def test_spurious_marks_collapse(self):
        net = grid_graph(3, 3, seed=16)
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, config=cfg)
        for v in list(net.nodes)[:4]:
            sim.overwrite(v, {"mark": True})
        result = sim.run(max_rounds=30 * net.n)
        assert result.silent
        assert proto.is_legal(net, sim.config)

    def test_spurious_swt_cleared(self):
        """A swt pointing at the current parent (or a non-neighbor) is
        insane and must be cleared without touching the tree."""
        net = ring(8, seed=17)
        proto = MalleableTreeProtocol()
        tree = bfs_tree(net)
        cfg = proto.legal_configuration(net, tree)
        sim = Simulator(net, proto, config=cfg)
        v = [u for u in net.nodes if tree.parent(u) is not None][0]
        sim.overwrite(v, {"swt": tree.parent(v)})
        result = sim.run(max_rounds=20 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == tree.edges()

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    def test_nested_switch_requests_recover(self, sched_name):
        """Two nested switch initiators on K4: 14 requests a switch onto
        5 while its parent 13 requests one onto 10.  13's request marks
        it and prunes its size; 14 sits below a pending switch, so its
        distance is pruned.  Neither switch can become ready; the outer
        initiator must withdraw instead of holding a silent illegal
        configuration."""
        net = complete_graph(4)
        a, b, c, d = sorted(net.nodes)
        cfg = {
            a: dict(rid=a, par=NONE, d=0, s=NONE, mark=True, swt=NONE),
            b: dict(rid=a, par=a, d=1, s=NONE, mark=True, swt=NONE),
            c: dict(rid=a, par=a, d=1, s=NONE, mark=True, swt=b),
            d: dict(rid=a, par=c, d=NONE, s=1, mark=False, swt=a),
        }
        proto = MalleableTreeProtocol()
        sched = CrossCheckingScheduler(ALL_SCHEDULER_FACTORIES[sched_name](3))
        sim = Simulator(net, proto, sched, config=cfg)
        sched.sim = sim
        assert sim.enabled_nodes() == [c]  # the outer initiator yields
        result = sim.run(max_rounds=20 * net.n)
        assert result.silent and sched.checks > 0
        assert proto.is_legal(net, sim.config)
