"""The incremental enabled-set engine, cross-checked against first principles.

Three pillars:

* **Incremental ≡ rescan**: before *every* scheduler selection (and across
  mid-run fault injections) the engine's incrementally maintained enabled
  set and cached proposals must equal a from-scratch, cache-free
  evaluation of ``step`` over the whole network — for every protocol
  family of the tier-1 suite under every daemon.
* **Golden determinism**: seeded runs must reproduce the exact
  (rounds, moves, final configuration) triples recorded with the
  pre-refactor full-rescan engine, pinning down that the rewrite changed
  the complexity of stepping, not the semantics.
* **Scheduler path equivalence**: a central daemon's ``select`` must
  return exactly the node a fresh instance's ``pick`` returns, over the
  same churned enabled set (the fused loop calls ``pick``, every other
  path ``select``).
"""

import hashlib
import random

import pytest

from repro.baselines.compact_mst import CompactNonSilentMST
from repro.baselines.dim_bfs import AdHocBFSProtocol
from repro.certify.oracle import DigestLayer
from repro.core.sst import SpanningTreeProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import (
    guided_bfs_protocol,
    guided_mdst_protocol,
    guided_mst_protocol,
)
from repro.graphs import random_connected_graph
from repro.runtime import (
    ALL_SCHEDULER_FACTORIES,
    CentralScheduler,
    ComposedProtocol,
    EnabledSet,
    Simulator,
    StarvingScheduler,
    inject_random_faults,
    random_configuration,
)

from crosscheck import CrossCheckingScheduler

# name -> (factory, weighted network needed, silent protocol)
PROTOCOLS = {
    "sst": (SpanningTreeProtocol, False, True),
    "adhoc-bfs": (AdHocBFSProtocol, False, True),
    "sst+digest": (lambda: ComposedProtocol(
        [SpanningTreeProtocol(), DigestLayer(fields=("rid", "par", "d"))],
        name="sst+digest"), False, True),
    "malleable-tree": (MalleableTreeProtocol, False, True),
    "guided-bfs": (guided_bfs_protocol, False, True),
    "guided-mst": (guided_mst_protocol, True, True),
    "guided-mdst": (guided_mdst_protocol, False, True),
    "compact-mst": (CompactNonSilentMST, True, False),
}

#: compact-mst is never silent: a deterministic central daemon re-activates
#: the same extremal identity forever, so the Section II-A round never
#: completes — a livelock of the daemon/protocol pair, not of the engine.
#: (The former malleable-tree/central-max-id exclusions were removed when
#: the election layer gained its adoption-soundness guard and the size
#: overflow became a prune instead of a reset; every malleable-based
#: protocol now stabilizes under the max-id adversary too.)
EXCLUDED = {("compact-mst", "central-max-id"),
            ("compact-mst", "central-min-id")}


class TestIncrementalEqualsRescan:
    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("proto_name", sorted(PROTOCOLS))
    def test_every_step_and_across_faults(self, proto_name, sched_name):
        if (proto_name, sched_name) in EXCLUDED:
            pytest.skip("never-silent protocol + deterministic central "
                        "daemon: the Section II-A round cannot complete")
        factory, weighted, silent = PROTOCOLS[proto_name]
        net = random_connected_graph(8, seed=21, weighted=weighted)
        proto = factory()
        cfg = random_configuration(net, proto, seed=22)
        sched = CrossCheckingScheduler(ALL_SCHEDULER_FACTORIES[sched_name](23))
        sim = Simulator(net, proto, sched, config=cfg)
        sched.sim = sim

        if silent:
            assert sim.run(max_rounds=50_000).silent
        else:
            for _ in range(6):
                sim.run_round()

        # transient faults feed the dirty set through Simulator.overwrite;
        # the incremental state must stay coherent without a rebuild
        victims = inject_random_faults(sim, k=3, seed=24)
        assert len(victims) == 3
        assert sim.enabled_nodes() == sim.rescan_enabled()

        if silent:
            assert sim.run(max_rounds=50_000).silent
        else:
            for _ in range(4):
                sim.run_round()

        assert sim.enabled_nodes() == sim.rescan_enabled()
        if silent:
            assert sched.checks > 0  # the cross-check actually ran

    def test_refereed_single_movers_run_fused(self):
        """The referee wraps a daemon without turning the fused
        single-mover loop off: every refereed move is applied inline, so
        none retires through the cold path's settle bookkeeping."""
        net = random_connected_graph(24, seed=31)
        proto = SpanningTreeProtocol()
        cfg = random_configuration(net, proto, seed=32)
        sched = CrossCheckingScheduler(
            ALL_SCHEDULER_FACTORIES["central-random"](33))
        sim = Simulator(net, proto, sched, config=cfg)
        sched.sim = sim
        assert sim.run(max_rounds=50_000).silent
        assert sched.checks == sim.moves > 0
        assert sim.stat_settle_retired == 0


# (rounds, moves, sha256[:16] of the canonical final configuration).
# The sst rows are the values recorded with the pre-refactor engine (full
# rescan before every select) at commit 91f0447; the malleable-tree rows
# were re-recorded — with incremental == rescan verified at every select —
# after the election-layer livelock fix deliberately changed that
# protocol's transition function (adoption-soundness guard + size-overflow
# prune), which also made the central-max-id row recordable at all.
GOLDEN = {
    ("sst", "central-max-id"): (4, 142, "4146ee37f1913c53"),
    ("sst", "central-min-id"): (1, 19, "a2975d9428dfb0c5"),
    ("sst", "central-random"): (2, 42, "feabaa4470071d9b"),
    ("sst", "central-round-robin"): (2, 20, "23367e4919a51890"),
    ("sst", "distributed-random"): (1, 26, "feabaa4470071d9b"),
    ("sst", "starving"): (2, 42, "feabaa4470071d9b"),
    ("sst", "synchronous"): (4, 43, "a2975d9428dfb0c5"),
    ("malleable-tree", "central-max-id"): (3, 322, "49ef0a1f506693e5"),
    ("malleable-tree", "central-min-id"): (9, 241, "33b4bb1e344d330b"),
    ("malleable-tree", "central-random"): (4, 62, "c5dc0337c77eeed2"),
    ("malleable-tree", "central-round-robin"): (5, 31, "1799bd378c4c6067"),
    ("malleable-tree", "distributed-random"): (5, 60, "3242f4c91e5d159a"),
    ("malleable-tree", "starving"): (3, 63, "377dc2121412ba82"),
    ("malleable-tree", "synchronous"): (6, 55, "1491eea2b2bd63d7"),
}


def _canonical_hash(config) -> str:
    canon = repr(tuple(sorted((v, tuple(sorted(s.items())))
                              for v, s in config.items())))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class TestGoldenDeterminism:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_seeded_run_reproduces_pre_refactor_result(self, key):
        proto_name, sched_name = key
        proto = {"sst": SpanningTreeProtocol,
                 "malleable-tree": MalleableTreeProtocol}[proto_name]()
        net = random_connected_graph(16, seed=5)
        cfg = random_configuration(net, proto, seed=9)
        sim = Simulator(net, proto, ALL_SCHEDULER_FACTORIES[sched_name](11),
                        config=cfg)
        result = sim.run(max_rounds=100_000)
        got = (result.rounds, result.moves, _canonical_hash(sim.config))
        assert got == GOLDEN[key], (
            f"{key}: seeded execution diverged from the pre-refactor engine")


#: the daemons that state their choice as ``pick``
CENTRAL = sorted(name for name, factory in ALL_SCHEDULER_FACTORIES.items()
                 if isinstance(factory(0), CentralScheduler))


class TestSchedulerPathEquivalence:
    """A central daemon's ``select`` stream == its ``pick`` stream."""

    def _churn(self, factory, steps=150, seed=77):
        """Drive two instances of the same daemon through an identical
        random churn of the enabled set: one via ``select``, one via
        ``pick``."""
        rng = random.Random(seed)
        universe = list(range(1, 48))
        current = set(rng.sample(universe, 14))
        via_select, via_pick = factory(5), factory(5)
        for _ in range(steps):
            es = EnabledSet(current)
            chosen = via_pick.pick(es)
            assert chosen in es
            assert via_select.select(es) == [chosen]
            adds = [v for v in rng.sample(universe, 3) if v not in current]
            removable = sorted(current - set(adds))
            removes = rng.sample(removable, min(2, max(0, len(removable) - 1)))
            current.update(adds)
            current.difference_update(removes)

    def test_the_central_daemons(self):
        assert CENTRAL == ["central-max-id", "central-min-id",
                           "central-random", "central-round-robin",
                           "starving"]

    @pytest.mark.parametrize("name", CENTRAL)
    def test_all_daemons(self, name):
        self._churn(ALL_SCHEDULER_FACTORIES[name])

    def test_starving_with_victim_set(self):
        victims = {3, 9, 17, 40}
        self._churn(lambda seed: StarvingScheduler(victims, seed))


class TestEnabledSet:
    def test_sorted_sequence_and_set_semantics(self):
        es = EnabledSet([5, 1, 9])
        assert list(es) == [1, 5, 9]
        assert es[0] == 1 and es[-1] == 9
        assert 5 in es and 4 not in es
        assert len(es) == 3
        assert es.index(5) == 1

    def test_duplicates_collapse_and_bool(self):
        es = EnabledSet([4, 2, 4])
        assert list(es) == [2, 4] and len(es) == 2
        assert es
        assert not EnabledSet() and len(EnabledSet()) == 0

    def test_index_of_missing_raises(self):
        with pytest.raises(ValueError):
            EnabledSet([1]).index(2)
