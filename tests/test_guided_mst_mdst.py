"""End-to-end tests for the distributed MST (Corollary 6.1) and near-MDST
(Corollary 8.1) protocols: tree layer + NCA labels + chain swaps + phases,
with the root-side detector decision (see EXPERIMENTS.md, "Substitutions",
substitution 6)."""

import pytest

from repro.baselines import kruskal_mst
from repro.core import bfs_tree, random_spanning_tree
from repro.core.fr import is_fr_tree
from repro.core.swap import MalleableTreeProtocol, tree_of_config
from repro.core.tasks import (
    NCALabelLayer,
    guided_mdst_protocol,
    guided_mst_protocol,
)
from repro.graphs import (
    complete_graph,
    grid_graph,
    random_connected_graph,
    ring,
    theta_graph,
    wheel_graph,
)
from repro.runtime import (
    CentralRandomScheduler,
    Simulator,
    SynchronousScheduler,
    corrupt_random_nodes,
    random_configuration,
)


def seeded_config(net, proto, tree):
    base = MalleableTreeProtocol().legal_configuration(net, tree)
    cfg = proto.initial_configuration(net)
    for v in net.nodes:
        cfg[v].update(base[v])
    return cfg


class TestNCALabelLayer:
    def test_labels_settle_on_stable_tree(self):
        from repro.runtime import ComposedProtocol
        net = random_connected_graph(14, seed=1)
        tree = random_spanning_tree(net, seed=2, root=net.min_id)
        proto = ComposedProtocol([MalleableTreeProtocol(), NCALabelLayer()],
                                 name="tree+nca")
        cfg = seeded_config(net, proto, tree)
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=20 * net.n)
        assert result.silent
        assert NCALabelLayer.labels_ok(net, sim.config, tree)

    def test_labels_rebuild_from_arbitrary(self):
        from repro.runtime import ComposedProtocol
        net = grid_graph(3, 3, seed=3)
        proto = ComposedProtocol([MalleableTreeProtocol(), NCALabelLayer()],
                                 name="tree+nca")
        cfg = random_configuration(net, proto, seed=4)
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=200 * net.n)
        assert result.silent
        tree = tree_of_config(net, sim.config)
        assert NCALabelLayer.labels_ok(net, sim.config, tree)


MST_NETS = [
    ring(8, seed=5, weighted=True),
    grid_graph(3, 3, seed=6, weighted=True),
    theta_graph([3, 4], seed=7, weighted=True),
    random_connected_graph(10, seed=8, weighted=True),
]


class TestGuidedMST:
    @pytest.mark.parametrize("net", MST_NETS,
                             ids=[f"g{i}" for i in range(len(MST_NETS))])
    def test_reaches_mst_from_random_tree(self, net):
        proto = guided_mst_protocol()
        start = random_spanning_tree(net, seed=9, root=net.min_id)
        sim = Simulator(net, proto, SynchronousScheduler(),
                        config=seeded_config(net, proto, start))
        result = sim.run(max_rounds=6000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_from_arbitrary_configuration(self, ):
        net = random_connected_graph(10, seed=10, weighted=True)
        proto = guided_mst_protocol()
        for seed in range(2):
            cfg = random_configuration(net, proto, seed=seed)
            sim = Simulator(net, proto, config=cfg)
            result = sim.run(max_rounds=8000 * net.n)
            assert result.silent, seed
            assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_mst_config_is_silent(self):
        from repro.core import tree_from_edges
        net = random_connected_graph(12, seed=11, weighted=True)
        proto = guided_mst_protocol()
        mst = tree_from_edges(net, kruskal_mst(net), root=net.min_id)
        sim = Simulator(net, proto, config=seeded_config(net, proto, mst))
        result = sim.run(max_rounds=60 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_under_central_scheduler(self):
        net = ring(8, seed=12, weighted=True)
        proto = guided_mst_protocol()
        start = random_spanning_tree(net, seed=13, root=net.min_id)
        sim = Simulator(net, proto, CentralRandomScheduler(seed=14),
                        config=seeded_config(net, proto, start))
        result = sim.run(max_rounds=30_000)
        assert result.silent
        assert tree_of_config(net, sim.config).edges() == kruskal_mst(net)

    def test_fault_recovery(self):
        net = theta_graph([3, 4], seed=15, weighted=True)
        proto = guided_mst_protocol()
        start = random_spanning_tree(net, seed=16, root=net.min_id)
        sim = Simulator(net, proto,
                        config=seeded_config(net, proto, start))
        sim.run(max_rounds=6000 * net.n)
        corrupted, _ = corrupt_random_nodes(net, sim.spec, sim.config,
                                            k=3, seed=17)
        sim2 = Simulator(net, proto, config=corrupted)
        result = sim2.run(max_rounds=8000 * net.n)
        assert result.silent
        assert tree_of_config(net, sim2.config).edges() == kruskal_mst(net)


class TestGuidedMDST:
    def test_complete_graph_star_to_path(self):
        """K_n: a star (degree n-1) must become degree <= 3 (OPT = 2)."""
        net = complete_graph(8, seed=18)
        proto = guided_mdst_protocol()
        sim = Simulator(net, proto, SynchronousScheduler(),
                        config=seeded_config(net, proto, bfs_tree(net)))
        result = sim.run(max_rounds=8000 * net.n)
        assert result.silent
        tree = tree_of_config(net, sim.config)
        assert is_fr_tree(net, tree)
        assert tree.max_degree() <= 3

    @pytest.mark.parametrize("net", [
        wheel_graph(8, seed=19),
        random_connected_graph(10, extra_edges=15, seed=20),
        grid_graph(3, 3, seed=21),
    ], ids=["wheel", "dense", "grid"])
    def test_stabilizes_on_fr_tree(self, net):
        from repro.baselines import exact_minimum_degree
        proto = guided_mdst_protocol()
        start = random_spanning_tree(net, seed=22, root=net.min_id)
        sim = Simulator(net, proto, SynchronousScheduler(),
                        config=seeded_config(net, proto, start))
        result = sim.run(max_rounds=8000 * net.n)
        assert result.silent
        tree = tree_of_config(net, sim.config)
        assert is_fr_tree(net, tree)
        assert tree.max_degree() <= exact_minimum_degree(net) + 1

    def test_from_arbitrary_configuration(self):
        net = wheel_graph(7, seed=23)
        proto = guided_mdst_protocol()
        cfg = random_configuration(net, proto, seed=24)
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=8000 * net.n)
        assert result.silent
        assert is_fr_tree(net, tree_of_config(net, sim.config))

    def test_fr_tree_config_is_silent(self):
        from repro.core.fr import fuerer_raghavachari
        net = random_connected_graph(10, extra_edges=12, seed=25)
        run = fuerer_raghavachari(net)
        tree = run.tree if run.tree.root == net.min_id else run.tree.rerooted(net.min_id)
        proto = guided_mdst_protocol()
        sim = Simulator(net, proto, config=seeded_config(net, proto, tree))
        result = sim.run(max_rounds=100 * net.n)
        assert result.silent
        assert tree_of_config(net, sim.config).same_edges(tree)


class TestJunkBroadcast:
    """One transient fault in the broadcast registers must not silence
    the construction on an illegal tree.  Overwriting every ``bc`` with
    junk right after the root issues a decision makes the SWAP phase
    flush with the subtree digest unchanged; the root may retire only
    the decision it issued, never a valid one the junk replaced."""

    @pytest.mark.parametrize("factory", [guided_mst_protocol,
                                         guided_mdst_protocol],
                             ids=["guided-mst", "guided-mdst"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_silence_after_junk_broadcast_is_legal(self, factory, seed):
        net = random_connected_graph(8, seed=seed, weighted=True)
        proto = factory()
        task = proto.layers[-1]
        sim = Simulator(net, proto,
                        config=random_configuration(net, proto, seed=seed))
        sim.run(max_rounds=5000 * net.n,
                stop_when=lambda *_: task._issued is not None)
        assert task._issued is not None
        for v in net.nodes:
            sim.overwrite(v, {"bc": (1, 2, 3, ((99, 0),), "junk")})
        result = sim.run(max_rounds=5000 * net.n)
        assert result.silent
        assert proto.is_legal(net, sim.config)
