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
* **Scheduler path equivalence**: a daemon driven through the incremental
  reset/notify hooks must pick exactly what a fresh instance picks from
  plain sorted lists (the ``select(enabled)`` compatibility path).
"""

import hashlib
import random

import pytest

from repro.baselines.compact_mst import CompactNonSilentMST
from repro.baselines.dim_bfs import AdHocBFSProtocol
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


class TestSchedulerPathEquivalence:
    """Incremental reset/notify-driven selection == plain-list selection."""

    def _churn(self, factory, steps=150, seed=77):
        """Drive two instances of the same daemon through an identical
        random churn of the enabled set: one via EnabledSet + hooks, one
        via plain sorted lists."""
        rng = random.Random(seed)
        universe = list(range(1, 48))
        current = set(rng.sample(universe, 14))
        inc, plain = factory(5), factory(5)
        es = EnabledSet(current)
        inc.reset(es)
        for _ in range(steps):
            assert inc.select(es) == plain.select(sorted(current))
            adds = [v for v in rng.sample(universe, 3) if v not in current]
            removable = sorted(current - set(adds))
            removes = rng.sample(removable, min(2, max(0, len(removable) - 1)))
            for v in adds:
                current.add(v)
                es.add(v)
            for v in removes:
                current.remove(v)
                es.discard(v)
            inc.notify(adds, removes)

    @pytest.mark.parametrize("name", sorted(ALL_SCHEDULER_FACTORIES))
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

    def test_add_discard_idempotent(self):
        es = EnabledSet()
        assert es.add(4) and not es.add(4)
        assert es.add(2)
        assert list(es) == [2, 4]
        assert es.discard(4) and not es.discard(4)
        assert list(es) == [2]
        assert not es.discard(99)

    def test_clear_and_bool(self):
        es = EnabledSet([1])
        assert es
        es.clear()
        assert not es and len(es) == 0

    def test_index_of_missing_raises(self):
        with pytest.raises(ValueError):
            EnabledSet([1]).index(2)
