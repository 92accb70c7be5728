"""Tests for the state-model runtime: registers, simulator, schedulers, faults.

Uses two tiny self-stabilizing toy protocols:

* MaxIdFlood — every node converges to the maximum identity in the network
  (a classic silent protocol: enabled iff own value != max of (own id,
  neighbor values)).
* ModuloClock — a non-silent unison-like counter (never silent), used to
  check that the engine does not mistake perpetual motion for convergence.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.sst import SpanningTreeProtocol
from repro.graphs import path_graph, random_connected_graph, ring, star_graph
from repro.runtime import (
    ALL_SCHEDULER_FACTORIES,
    ComposedProtocol,
    CentralRandomScheduler,
    CentralRoundRobinScheduler,
    DistributedRandomScheduler,
    NodeView,
    Protocol,
    RegisterSpec,
    Scheduler,
    Simulator,
    StarvingScheduler,
    SynchronousScheduler,
    corrupt_random_nodes,
    counter_field,
    id_field,
    inject_random_faults,
    max_register_bits,
    node_register_bits,
    random_configuration,
)


class MaxIdFlood(Protocol):
    """Silent SS computation of the network-wide maximum identity.

    Naive max-flooding is NOT self-stabilizing: a corrupted value above the
    true maximum would be supported forever.  As in the paper's spanning
    tree layer, every claim carries a hop counter bounded by N = n_bound;
    ghost claims have no source, so their minimal hop count rises every
    round until they exceed N and are flushed.
    """

    name = "max-id-flood"

    def register_spec(self, net):
        return RegisterSpec([
            id_field("maxid"),
            counter_field("hops", lambda n: n.n_bound),
        ])

    def step(self, view: NodeView):
        candidates = [(view.id, 0)]
        for u in view.neighbors:
            st = view.nbr(u)
            if st["hops"] + 1 <= view.n_bound:
                candidates.append((st["maxid"], st["hops"] + 1))
        # max id, then fewest hops
        best_id = max(c[0] for c in candidates)
        best_hops = min(h for (m, h) in candidates if m == best_id)
        if (view["maxid"], view["hops"]) != (best_id, best_hops):
            return {"maxid": best_id, "hops": best_hops}
        return None

    def is_legal(self, net, config):
        target = max(net.nodes)
        return all(config[v]["maxid"] == target for v in net.nodes)


class ModuloClock(Protocol):
    """A never-silent counter: every node is always enabled."""

    name = "modulo-clock"

    def register_spec(self, net):
        return RegisterSpec([counter_field("tick", lambda n: 7)])

    def step(self, view: NodeView):
        return {"tick": (view["tick"] + 1) % 8}


class TestRegisters:
    def test_default_state(self):
        net = path_graph(3, scramble_ids=False)
        spec = MaxIdFlood().register_spec(net)
        assert spec.default_state(net, 2) == {"maxid": 2, "hops": 0}

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegisterSpec([id_field("x"), id_field("x")])

    def test_state_bits_id_field(self):
        net = path_graph(4, scramble_ids=False)  # id_space = 16 -> 4 bits
        spec = MaxIdFlood().register_spec(net)
        # hops in {0..4} -> 3 bits; total 7
        assert spec.state_bits(net, {"maxid": 3, "hops": 1}) == 7

    def test_corrupt_state_in_domain(self):
        net = path_graph(4, scramble_ids=False)
        spec = MaxIdFlood().register_spec(net)
        rng = random.Random(0)
        for _ in range(50):
            s = spec.corrupt_state(net, 1, rng)
            assert 1 <= s["maxid"] <= net.id_space

    def test_merged_specs(self):
        a = RegisterSpec([id_field("x")])
        b = RegisterSpec([id_field("y")])
        assert a.merged(b).names == ("x", "y")


class TestSimulatorBasics:
    def test_converges_to_max_id(self):
        net = random_connected_graph(12, seed=1)
        sim = Simulator(net, MaxIdFlood())
        result = sim.run(max_rounds=50)
        assert result.silent
        assert MaxIdFlood().is_legal(net, sim.config)

    def test_converges_from_arbitrary_configuration(self):
        net = random_connected_graph(12, seed=2)
        proto = MaxIdFlood()
        for seed in range(5):
            cfg = random_configuration(net, proto, seed=seed)
            sim = Simulator(net, proto, config=cfg)
            result = sim.run(max_rounds=60)
            assert result.silent
            assert proto.is_legal(net, sim.config)

    def test_round_count_on_path_is_distance(self):
        """Information travels one hop per round under the synchronous daemon:
        a path with the max id at one end needs ~n-1 rounds."""
        net = path_graph(10, scramble_ids=False)
        sim = Simulator(net, MaxIdFlood(), SynchronousScheduler())
        result = sim.run(max_rounds=30)
        assert result.silent
        assert result.rounds == 9  # distance from node 10 to node 1

    def test_already_silent_run_is_zero_rounds(self):
        net = path_graph(4, scramble_ids=False)
        proto = MaxIdFlood()
        cfg = {v: {"maxid": 4, "hops": 4 - v} for v in net.nodes}
        sim = Simulator(net, proto, config=cfg)
        result = sim.run(max_rounds=5)
        assert result.rounds == 0
        assert result.moves == 0
        assert result.silent

    def test_confirm_silent(self):
        net = ring(6, seed=3)
        sim = Simulator(net, MaxIdFlood())
        sim.run(max_rounds=30)
        assert sim.confirm_silent()

    def test_non_silent_protocol_raises_on_budget(self):
        net = ring(5, seed=4)
        sim = Simulator(net, ModuloClock())
        with pytest.raises(RuntimeError, match="no convergence"):
            sim.run(max_rounds=10)

    def test_silence_in_the_last_budgeted_round_converges(self):
        # regression: run(max_rounds=k) raised "no convergence" when the
        # run fell silent in exactly round k
        net = random_connected_graph(12, seed=3)
        proto = SpanningTreeProtocol()
        cfg = random_configuration(net, proto, seed=5)
        assert Simulator(net, proto, config=cfg).run(max_rounds=100).rounds == 13
        result = Simulator(net, proto, config=cfg).run(max_rounds=13)
        assert result.silent
        assert result.rounds == 13
        assert not result.stopped_by_predicate

    def test_stop_when_predicate(self):
        net = ring(5, seed=5)
        sim = Simulator(net, ModuloClock())
        target = lambda n, cfg: all(cfg[v]["tick"] >= 3 for v in n.nodes)
        result = sim.run(max_rounds=100, stop_when=target)
        assert result.stopped_by_predicate
        assert not result.silent

    def test_moves_counted(self):
        net = path_graph(6, scramble_ids=False)
        sim = Simulator(net, MaxIdFlood(), CentralRandomScheduler(seed=1))
        result = sim.run(max_rounds=100)
        assert result.moves >= 5  # at least the nodes that had to change

    def test_invariant_hook(self):
        net = path_graph(5, scramble_ids=False)
        bad_invariant = lambda n, cfg: False
        sim = Simulator(net, MaxIdFlood(), invariant=bad_invariant)
        result = sim.run(max_rounds=30)
        assert result.invariant_violations > 0

    def test_trace_recording(self, tmp_path):
        from repro.obs.probes import TraceRecorder
        from repro.obs.trace import read_trace

        net = path_graph(4, scramble_ids=False)
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        sim = Simulator(net, MaxIdFlood(), recorder=recorder)
        result = sim.run(max_rounds=10)
        recorder.finalize(silent=result.silent)
        header, rounds, end = read_trace(recorder.path)
        assert header["n"] == 4
        assert len(rounds) >= 2
        assert rounds[0]["moves"] > 0
        assert sum(row["moves"] for row in rounds) == result.moves
        assert end["moves"] == result.moves and end["silent"] is True

    def test_overwrite_reactivates(self):
        net = path_graph(5, scramble_ids=False)
        sim = Simulator(net, MaxIdFlood())
        sim.run(max_rounds=20)
        assert sim.is_silent()
        sim.overwrite(1, {"maxid": 1})
        assert not sim.is_silent()
        result = sim.run(max_rounds=20)
        assert result.silent

    def test_rejects_malformed_config(self):
        net = path_graph(3, scramble_ids=False)
        with pytest.raises(ValueError, match="missing"):
            Simulator(net, MaxIdFlood(), config={v: {} for v in net.nodes})

    def test_overwrite_unknown_node_clear_error(self):
        net = path_graph(3, scramble_ids=False)
        sim = Simulator(net, MaxIdFlood())
        with pytest.raises(KeyError, match="unknown node 99"):
            sim.overwrite(99, {"maxid": 1})

    def test_overwrite_unknown_field_clear_error(self):
        net = path_graph(3, scramble_ids=False)
        sim = Simulator(net, MaxIdFlood())
        with pytest.raises(KeyError, match="unknown fields"):
            sim.overwrite(1, {"nosuch": 1})

    def test_junk_register_values_tolerated(self):
        """Corrupted registers may hold junk outside the field domain
        (unhashable parent pointers, fractional distances); rules must
        classify the node as unstable instead of crashing or adopting."""
        from repro.core.sst import SpanningTreeProtocol
        net = path_graph(4, scramble_ids=False)
        sim = Simulator(net, SpanningTreeProtocol())
        sim.run(max_rounds=30)
        sim.overwrite(2, {"rid": 1, "d": 1, "par": [1]})   # unhashable junk
        sim.overwrite(3, {"rid": 0, "d": -0.5})            # fractional junk
        result = sim.run(max_rounds=30)
        assert result.silent
        assert all(isinstance(sim.config[v]["d"], int) for v in net.nodes)
        assert SpanningTreeProtocol().is_legal(net, sim.config)

    def test_inject_random_faults_in_place(self):
        net = random_connected_graph(10, seed=3)
        proto = MaxIdFlood()
        sim = Simulator(net, proto)
        sim.run(max_rounds=50)
        assert sim.is_silent()
        victims = inject_random_faults(sim, k=4, seed=5)
        assert len(victims) == 4
        assert sim.enabled_nodes() == sim.rescan_enabled()
        result = sim.run(max_rounds=50)
        assert result.silent
        assert proto.is_legal(net, sim.config)


class TestRefreshExceptionSafety:
    def test_raising_step_does_not_desynchronize(self):
        """A protocol.step that raises mid-refresh must leave the engine
        consistent: processed transitions reach the scheduler's mirror,
        the failing node stays dirty, and a repaired run still converges
        with the incremental enabled set equal to a full rescan."""

        class Fragile(MaxIdFlood):
            def step(self, view):
                if view["hops"] == -1:  # poisoned sentinel
                    raise RuntimeError("boom")
                return super().step(view)

        net = path_graph(6, scramble_ids=False)
        sched = StarvingScheduler(victims={6}, seed=0)
        sim = Simulator(net, Fragile(), sched)
        sim.run(max_rounds=30)
        assert sim.is_silent()
        # dirty three nodes; the middle one poisons its own re-proposal
        sim.overwrite(1, {"maxid": 1, "hops": 0})
        sim.overwrite(3, {"hops": -1})
        sim.overwrite(5, {"maxid": 1, "hops": 0})
        with pytest.raises(RuntimeError, match="boom"):
            sim.enabled_nodes()
        # node 1's transition was applied before the raise: it must have
        # reached the starving daemon's non-victim mirror, and the failing
        # node must still be dirty (to be re-proposed after repair)
        assert 1 in sched._preferred
        assert 3 in sim._dirty
        # repair the poisoned register; everything must reconverge
        sim.overwrite(3, {"hops": 0})
        assert sim.enabled_nodes() == sim.rescan_enabled()
        result = sim.run(max_rounds=30)
        assert result.silent
        assert sim.enabled_nodes() == sim.rescan_enabled()


class _BadScheduler(Scheduler):
    """Returns whatever its factory says — for contract-violation tests."""

    name = "bad"

    def __init__(self, fn):
        self._fn = fn

    def select(self, enabled):
        return self._fn(list(enabled))


class TestSelectionValidation:
    """run_round must reject daemon contract violations loudly instead of
    double-counting moves or silently tolerating stray nodes."""

    def _sim(self, sched):
        net = path_graph(5, scramble_ids=False)
        return Simulator(net, MaxIdFlood(), sched)

    def test_duplicate_selection_rejected(self):
        sim = self._sim(_BadScheduler(lambda en: [en[0], en[0]]))
        with pytest.raises(RuntimeError, match="duplicate"):
            sim.run_round()

    def test_non_enabled_selection_rejected(self):
        net = path_graph(5, scramble_ids=False)
        sim = Simulator(
            net, MaxIdFlood(),
            _BadScheduler(lambda en: [next(v for v in net.nodes
                                           if v not in en)]))
        with pytest.raises(RuntimeError, match="non-enabled"):
            sim.run_round()

    def test_empty_selection_rejected(self):
        sim = self._sim(_BadScheduler(lambda en: []))
        with pytest.raises(RuntimeError, match="selected no node"):
            sim.run_round()

    def test_mixed_valid_and_stray_rejected(self):
        sim = self._sim(_BadScheduler(lambda en: en + [10_000]))
        with pytest.raises(RuntimeError, match="non-enabled"):
            sim.run_round()

    @staticmethod
    def _counting_validate(sim):
        calls = []
        check = sim._validate_selection

        def counting(chosen):
            calls.append(list(chosen))
            check(chosen)

        sim._validate_selection = counting
        return calls

    def test_whole_enabled_list_skips_the_scan(self):
        # a selection equal to the live enabled list is valid by
        # construction: the synchronous daemon never pays the scan
        sim = self._sim(SynchronousScheduler())
        calls = self._counting_validate(sim)
        assert sim.run(max_rounds=100).silent
        assert sim.moves > 1 and calls == []

    def test_other_multi_node_selections_still_scanned(self):
        # the same nodes in another order are not the live list: checked
        sim = self._sim(_BadScheduler(lambda en: en[::-1]))
        calls = self._counting_validate(sim)
        assert sim.run_round()
        assert calls and all(len(c) > 1 for c in calls)


class TestSchedulers:
    @pytest.mark.parametrize("name", sorted(ALL_SCHEDULER_FACTORIES))
    def test_all_schedulers_converge(self, name):
        net = random_connected_graph(10, seed=6)
        proto = MaxIdFlood()
        cfg = random_configuration(net, proto, seed=7)
        sched = ALL_SCHEDULER_FACTORIES[name](seed=8)
        sim = Simulator(net, proto, sched, config=cfg)
        result = sim.run(max_rounds=500)
        assert result.silent, name
        assert proto.is_legal(net, sim.config), name

    def test_synchronous_selects_all(self):
        assert SynchronousScheduler().select([1, 2, 3]) == [1, 2, 3]

    def test_central_random_selects_one(self):
        s = CentralRandomScheduler(seed=0)
        for _ in range(20):
            assert len(s.select([1, 2, 3])) == 1

    def test_round_robin_rotates(self):
        s = CentralRoundRobinScheduler()
        picks = [s.select([1, 2, 3])[0] for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_distributed_random_nonempty(self):
        s = DistributedRandomScheduler(p=0.1, seed=0)
        for _ in range(50):
            chosen = s.select([1, 2, 3])
            assert chosen
            assert set(chosen) <= {1, 2, 3}

    def test_starving_avoids_victims_when_possible(self):
        s = StarvingScheduler(victims={1}, seed=0)
        for _ in range(20):
            assert s.select([1, 2, 3])[0] != 1
        assert s.select([1]) == [1]  # must pick a victim if only victims enabled

    def test_distributed_random_validates_p(self):
        with pytest.raises(ValueError):
            DistributedRandomScheduler(p=0.0)

    def test_distributed_random_bounded_redraws(self):
        """Regression: tiny p with a small enabled set used to spin in an
        unbounded redraw loop; the daemon now falls back to one uniformly
        random enabled node after ``max_redraws`` empty draws."""
        s = DistributedRandomScheduler(p=1e-12, seed=0, max_redraws=8)
        for _ in range(10):
            chosen = s.select([4, 7, 9])
            assert len(chosen) == 1
            assert chosen[0] in {4, 7, 9}

    def test_distributed_random_validates_max_redraws(self):
        with pytest.raises(ValueError):
            DistributedRandomScheduler(p=0.5, max_redraws=0)


class TestComposition:
    def test_layers_share_register(self):
        net = star_graph(5, seed=9)

        class Echo(Protocol):
            """Copies the flood layer's result into its own field."""
            name = "echo"

            def register_spec(self, net):
                return RegisterSpec([id_field("copy")])

            def step(self, view):
                if view["copy"] != view["maxid"]:
                    return {"copy": view["maxid"]}
                return None

        composed = ComposedProtocol([MaxIdFlood(), Echo()])
        sim = Simulator(net, composed)
        result = sim.run(max_rounds=50)
        assert result.silent
        target = max(net.nodes)
        assert all(sim.config[v]["copy"] == target for v in net.nodes)

    def test_lower_layer_updates_visible_to_upper_same_step(self):
        """In one atomic step, an upper layer sees the lower layer's pending
        write at the same node (the register is written atomically)."""
        net = path_graph(2, scramble_ids=False)

        class Mirror(Protocol):
            name = "mirror"

            def register_spec(self, net):
                return RegisterSpec([id_field("mirror")])

            def step(self, view):
                if view["mirror"] != view["maxid"]:
                    return {"mirror": view["maxid"]}
                return None

        composed = ComposedProtocol([MaxIdFlood(), Mirror()])
        sim = Simulator(net, composed, SynchronousScheduler())
        sim.run(max_rounds=10)
        # node 1 adopted maxid=2 and mirrored it within the same atomic step
        assert sim.config[1] == {"maxid": 2, "hops": 1, "mirror": 2}

    def test_field_collision_detected(self):
        net = path_graph(2, scramble_ids=False)
        with pytest.raises(ValueError, match="duplicate"):
            ComposedProtocol([MaxIdFlood(), MaxIdFlood()]).register_spec(net)

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            ComposedProtocol([])

    def test_single_layer_composition_runs_like_its_layer(self):
        """A one-layer composition runs its layer's slot rule and reaches
        the bare layer's execution."""
        net = random_connected_graph(12, seed=21)
        outcomes = []
        for proto in (SpanningTreeProtocol(),
                      ComposedProtocol([SpanningTreeProtocol()])):
            cfg = random_configuration(net, proto, seed=23)
            sim = Simulator(net, proto, SynchronousScheduler(), config=cfg)
            result = sim.run(max_rounds=1_000)
            assert result.silent
            outcomes.append((result.rounds, result.moves, sim.config))
        assert outcomes[0] == outcomes[1]

    def test_composition_contract_offers_only_scalar_rules(self):
        class Unshardable(MaxIdFlood):
            shardable = False

        contract = ComposedProtocol([SpanningTreeProtocol()]).rule_contract()
        # a composition's one rule is its composed slot rule
        assert contract["entrypoints"] == {
            "step": False, "fast_step_slots": True,
            "interrupt_step": False}
        assert contract["shardable"] is True
        # one unshardable layer makes the whole atomic step unshardable
        mixed = ComposedProtocol([MaxIdFlood(), Unshardable()])
        assert mixed.shardable is False
        assert mixed.rule_contract()["shardable"] is False


class TestFaultsAndMetrics:
    def test_corrupt_random_nodes_then_restabilize(self):
        net = random_connected_graph(10, seed=10)
        proto = MaxIdFlood()
        sim = Simulator(net, proto)
        sim.run(max_rounds=50)
        corrupted, victims = corrupt_random_nodes(
            net, sim.spec, sim.config, k=3, seed=11)
        assert len(victims) == 3
        sim2 = Simulator(net, proto, config=corrupted)
        result = sim2.run(max_rounds=50)
        assert result.silent
        assert proto.is_legal(net, sim2.config)

    def test_corruption_does_not_mutate_original(self):
        net = path_graph(5, scramble_ids=False)
        proto = MaxIdFlood()
        sim = Simulator(net, proto)
        sim.run(max_rounds=20)
        before = {v: dict(s) for v, s in sim.config.items()}
        corrupt_random_nodes(net, sim.spec, sim.config, k=5, seed=0)
        assert sim.config == before

    def test_register_bits_measured(self):
        net = path_graph(8, scramble_ids=False)  # id_space 64 -> 6 bits
        proto = MaxIdFlood()
        sim = Simulator(net, proto)
        # hops in {0..8} -> 4 bits; total 10
        bits = node_register_bits(net, sim.spec, sim.config)
        assert all(b == 10 for b in bits.values())
        assert max_register_bits(net, sim.spec, sim.config) == 10


#: Runs in a fresh interpreter: numpy-free imports must hold for every
#: daemon and for sharded workers.  A finder that fails any numpy import
#: is inherited by the forked shard workers, where a failed import
#: surfaces as a ShardCrashError.
_NO_NUMPY_SCRIPT = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise RuntimeError("the engine imported numpy")

sys.meta_path.insert(0, NoNumpy())

from repro.core.sst import SpanningTreeProtocol
from repro.graphs import random_connected_graph
from repro.graphs.implicit import build_topology
from repro.obs.workloads import WORKLOADS
from repro.runtime import (CentralRandomScheduler, Simulator,
                           SynchronousScheduler, random_configuration)
from repro.runtime.sharding import ShardedSimulator, plan_partition

net = random_connected_graph(64, seed=5)
for sched in (SynchronousScheduler(), CentralRandomScheduler(3)):
    proto = SpanningTreeProtocol()
    sim = Simulator(net, proto, sched,
                    config=random_configuration(net, proto, seed=7))
    assert sim.run(max_rounds=10_000).silent

w = WORKLOADS["smoke-shard-sst-512"]
topo = build_topology(w.topology, w.topo)
with ShardedSimulator(topo, SpanningTreeProtocol,
                      plan_partition(topo, w.shards),
                      init_seed=w.init_args["seed"]) as sharded:
    assert sharded.run_round() > 0
assert "numpy" not in sys.modules
print("ok")
"""


def test_engine_runs_without_numpy():
    """The synchronous and central daemons and a sharded round never
    import numpy, whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
