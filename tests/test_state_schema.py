"""The slot-indexed state plane, pinned to the name-keyed views and step.

Four pillars:

* **Schema/view contract**: a :class:`StateSchema` compiles a
  ``RegisterSpec`` into a stable name → slot table, and a
  :class:`SlotState` is a *zero-copy* MutableMapping over one slot row —
  equal to the corresponding plain dict, writable through either plane,
  with the layout fixed.
* **Slot view ≡ dict view, propertywise**: on random (adversarial)
  configurations, encoding through the schema and reading back through
  the Mapping views reproduces the boundary dicts exactly — before,
  during, and after execution.
* **Slot rule ≡ referee, per selection**: entire executions — every
  protocol family of the tier-1 suite under every daemon — run under the
  cross-checking scheduler, which compares each cached slot-rule
  proposal with the name-keyed referee (``referee_rules.py``: the
  NodeView statement of the tree and guided layers, ``step`` elsewhere)
  before every selection, and reproduce the plain run's ``(rounds,
  moves, final configuration)`` bit-for-bit.  Protocols without a
  compiled ``fast_step_slots`` run through the ``adapt_step_to_slots``
  bridge.
* **Out-of-domain registers**: a transient fault may leave any value in
  a register — bools, strings, floats, unhashable lists, ints far past
  64 bits.  The slot rule must read such a value exactly as the referee
  does, the incremental enabled set must stay equal to a rescan after
  every round, and the run must drain the junk to a legal silent tree.
"""

import hashlib

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
    ComposedProtocol,
    NONE,
    Protocol,
    RegisterSpec,
    Simulator,
    SlotState,
    adapt_step_to_slots,
    counter_field,
    random_configuration,
)

from crosscheck import CrossCheckingScheduler

PROTOCOLS = {
    "sst": (SpanningTreeProtocol, False),
    "adhoc-bfs": (AdHocBFSProtocol, False),
    "sst+digest": (lambda: ComposedProtocol(
        [SpanningTreeProtocol(), DigestLayer(fields=("rid", "par", "d"))],
        name="sst+digest"), False),
    "malleable-tree": (MalleableTreeProtocol, False),
    "guided-bfs": (guided_bfs_protocol, False),
    "guided-mst": (guided_mst_protocol, True),
    "guided-mdst": (guided_mdst_protocol, False),
}


def _hash(config) -> str:
    canon = repr(tuple(sorted((v, tuple(sorted(s.items())))
                              for v, s in config.items())))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class TestStateSchema:
    def _schema(self):
        net = random_connected_graph(6, seed=1)
        proto = MalleableTreeProtocol()
        spec = proto.register_spec(net)
        return net, spec, spec.schema()

    def test_compile_names_to_slots(self):
        _, spec, schema = self._schema()
        assert schema.names == spec.names
        assert schema.width == len(spec.names)
        for i, name in enumerate(spec.names):
            assert schema.slot(name) == i
        with pytest.raises(KeyError):
            schema.slot("nope")

    def test_schema_cached_per_spec(self):
        _, spec, schema = self._schema()
        assert spec.schema() is schema

    def test_row_roundtrip_and_missing_field(self):
        net, spec, schema = self._schema()
        state = spec.default_state(net, 3)
        row = schema.row_of(state)
        assert schema.to_dict(row) == state
        assert schema.default_row(net, 3) == row
        state.pop("mark")
        with pytest.raises(KeyError):
            schema.row_of(state)

    def test_extra_boundary_fields_are_ignored(self):
        net, spec, schema = self._schema()
        state = spec.default_state(net, 2)
        state["bt"] = ("assigner-only", "decoration")
        assert schema.to_dict(schema.row_of(state)) == {
            k: v for k, v in state.items() if k != "bt"}


class TestSlotStateView:
    def _view(self):
        net = random_connected_graph(6, seed=1)
        spec = MalleableTreeProtocol().register_spec(net)
        schema = spec.schema()
        state = spec.default_state(net, 4)
        row = schema.row_of(state)
        return schema, state, row, schema.view(row)

    def test_mapping_protocol_matches_dict(self):
        _, state, row, view = self._view()
        assert view == state and state == dict(view)
        assert len(view) == len(state)
        assert set(view) == set(state)
        assert sorted(view.items()) == sorted(state.items())
        assert list(view.keys()) == list(state.keys())
        assert view["rid"] == state["rid"]
        assert view.get("rid") == state["rid"]
        assert view.get("nope", 42) == 42
        assert "rid" in view and "nope" not in view
        assert view.to_dict() == state and view.copy() == state

    def test_zero_copy_both_planes(self):
        schema, _, row, view = self._view()
        row[schema.slot("d")] = 7
        assert view["d"] == 7
        view["s"] = 9
        assert row[schema.slot("s")] == 9

    def test_fixed_layout(self):
        _, _, _, view = self._view()
        with pytest.raises(KeyError):
            view["nope"] = 1
        with pytest.raises(TypeError):
            del view["rid"]

    def test_equality_is_content_based(self):
        schema, state, row, view = self._view()
        other = schema.view(list(row))
        assert view == other
        other["mark"] = True
        assert view != other
        assert view != {**state, "mark": "junk"}
        assert view != {k: v for k, v in state.items() if k != "mark"}
        assert view != 3

    def test_junk_values_are_storable(self):
        _, _, _, view = self._view()
        view["par"] = [1]        # unhashable junk a fault may write
        view["d"] = -0.5
        assert view["par"] == [1] and view["d"] == -0.5


class TestSlotViewEqualsDictView:
    """Property: the Mapping plane reproduces the boundary dicts exactly."""

    @pytest.mark.parametrize("proto_name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_random_configurations(self, proto_name, seed):
        factory, weighted = PROTOCOLS[proto_name]
        net = random_connected_graph(10, seed=31, weighted=weighted)
        proto = factory()
        cfg = random_configuration(net, proto, seed=seed)
        sim = Simulator(net, proto, config=cfg)
        schema = sim.schema
        for v in net.nodes:
            view = sim.config[v]
            assert isinstance(view, SlotState)
            # slot view == dict view, fieldwise and wholesale
            assert view == cfg[v] and dict(view) == cfg[v]
            for i, name in enumerate(schema.names):
                assert view[name] is view.row[i]
        # ... and the engine's raw rows alias the views (zero-copy)
        for v in net.nodes:
            assert sim.config[v].row is sim._state[v]

    def test_views_track_execution(self):
        net = random_connected_graph(12, seed=3)
        proto = SpanningTreeProtocol()
        sim = Simulator(net, proto,
                        config=random_configuration(net, proto, seed=5))
        sim.run(max_rounds=1_000)
        dist = net.bfs_distances(net.min_id)
        for v in net.nodes:
            assert sim.config[v]["d"] == dist[v]
            assert sim.config[v].row[sim.schema.slot("d")] == dist[v]

    def test_overwrite_reaches_both_planes(self):
        net = random_connected_graph(8, seed=2)
        sim = Simulator(net, SpanningTreeProtocol())
        sim.run(max_rounds=100)
        victim = max(net.nodes)
        sim.overwrite(victim, {"d": 99, "par": NONE})
        assert sim.config[victim]["d"] == 99
        assert sim._state[victim][sim.schema.slot("d")] == 99
        assert sim.enabled_nodes() == sim.rescan_enabled()


class TestSlotRuleEqualsStep:
    """Every protocol × daemon pair runs under the cross-checking
    scheduler, which compares the engine's slot-rule proposals with the
    name-keyed referee at every selection — and the refereed (unfused)
    run reproduces the plain run bit-for-bit."""

    @staticmethod
    def _run(factory, net, sched_name, xcheck, drive):
        proto = factory()  # fresh instance: oracle memos are per-run
        cfg = random_configuration(net, proto, seed=22)
        sched = ALL_SCHEDULER_FACTORIES[sched_name](23)
        if xcheck:
            sched = CrossCheckingScheduler(sched)
        sim = Simulator(net, proto, sched, config=cfg)
        if xcheck:
            sched.sim = sim
        outcome = drive(sim)
        if xcheck:
            assert sched.checks > 0
        return outcome

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("proto_name", sorted(PROTOCOLS))
    def test_full_run_bit_identity(self, proto_name, sched_name):
        factory, weighted = PROTOCOLS[proto_name]
        net = random_connected_graph(8, seed=21, weighted=weighted)

        def drive(sim):
            result = sim.run(max_rounds=50_000)
            assert result.silent
            return result.rounds, result.moves, _hash(sim.config)

        outcomes = [self._run(factory, net, sched_name, xcheck, drive)
                    for xcheck in (False, True)]
        assert outcomes[0] == outcomes[1], (
            f"{proto_name} under {sched_name}: the refereed run diverged "
            f"from the plain run")

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    def test_compact_mst_slot_rule_bit_identity(self, sched_name):
        """The non-silent baseline never reaches silence (and unfair
        central daemons can even starve its rounds), so the referee runs
        a fixed *move*-budget prefix of the execution."""
        net = random_connected_graph(8, seed=21, weighted=True)

        def drive(sim):
            moved = sim.run_steps(max_moves=256)
            assert moved >= 256  # perpetual motion, by design
            return sim.moves, _hash(sim.config)

        outcomes = [self._run(CompactNonSilentMST, net, sched_name, xcheck,
                              drive)
                    for xcheck in (False, True)]
        assert outcomes[0] == outcomes[1], (
            f"compact-mst under {sched_name}: the refereed run diverged "
            f"from the plain run")

    def test_protocols_without_slot_rules_run_through_the_adapter(self):
        class DictOnlyUnison(Protocol):
            """Implements only ``step`` — runs through the adapter."""

            name = "dict-only-unison"

            def register_spec(self, net):
                return RegisterSpec([counter_field("tok", lambda n: 2)])

            def step(self, view):
                my = view["tok"]
                if any(view.nbr(u)["tok"] < my for u in view.neighbors):
                    return None
                return {"tok": (my + 1) % 3}

        net = random_connected_graph(8, seed=21, weighted=True)
        proto = DictOnlyUnison()
        sched = CrossCheckingScheduler(
            ALL_SCHEDULER_FACTORIES["central-random"](23))
        sim = Simulator(net, proto, sched)
        sched.sim = sim
        assert proto.fast_step_slots(sim.schema) is None
        assert sim._slot_rule.__qualname__ == (
            adapt_step_to_slots.__qualname__ + ".<locals>.rule")
        assert sim.run_round()
        assert sched.checks > 0
        assert sim.enabled_nodes() == sim.rescan_enabled()


#: values no register domain holds: ``True`` equals ``1`` but is a bool,
#: the ints straddle the 64-bit range, ``[1]`` is unhashable
JUNK = [True, "garbage", -1, 0.5, 2 ** 63 - 1, 2 ** 63, -(2 ** 63), [1]]

#: the protocols whose registers include the ``rid``/``par``/``d`` tree
JUNK_PROTOCOLS = ("sst", "adhoc-bfs", "sst+digest")


class TestOutOfDomainRegisters:
    """Junk register values run through the slot rule, refereed at every
    selection, and drain to a legal silent configuration."""

    @staticmethod
    def _drain(proto, net, sched_name, corrupt):
        sched = CrossCheckingScheduler(
            ALL_SCHEDULER_FACTORIES[sched_name](23))
        sim = Simulator(net, proto, sched,
                        config=random_configuration(net, proto, seed=22))
        sched.sim = sim
        corrupt(sim)
        assert sim.enabled_nodes() == sim.rescan_enabled()
        rounds = 0
        while sim.run_round():
            rounds += 1
            assert rounds < 1_000
            assert sim.enabled_nodes() == sim.rescan_enabled()
        assert sched.checks > 0
        assert sim.is_silent() and not sim.rescan_enabled()
        assert proto.is_legal(net, sim.config)
        # is_legal compares with ``==``, so also rule out a junk value
        # that merely equals a legal one (``True == 1``)
        for v in net.nodes:
            for name in ("rid", "par", "d"):
                value = sim.config[v][name]
                assert value is NONE or type(value) is int, (v, name, value)

    @pytest.mark.parametrize("junk", JUNK, ids=repr)
    @pytest.mark.parametrize("proto_name", JUNK_PROTOCOLS)
    def test_junk_in_each_tree_field_drains(self, proto_name, junk):
        net = random_connected_graph(10, seed=21)
        proto = PROTOCOLS[proto_name][0]()
        victims = dict(zip(("rid", "par", "d"), sorted(net.nodes)[-3:]))

        def corrupt(sim):
            for name, v in victims.items():
                sim.overwrite(v, {name: junk})
                assert sim.config[v][name] == junk

        self._drain(proto, net, "central-random", corrupt)

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    def test_every_register_junk_drains(self, sched_name):
        """Every node's ``rid``, ``par`` and ``d`` hold junk at once."""
        net = random_connected_graph(10, seed=21)
        fields = ("rid", "par", "d")

        def corrupt(sim):
            for i, v in enumerate(sorted(net.nodes)):
                sim.overwrite(v, {name: JUNK[(i + k) % len(JUNK)]
                                  for k, name in enumerate(fields)})

        self._drain(SpanningTreeProtocol(), net, sched_name, corrupt)


class TestBatchAwareStepping:
    """Synchronous rounds raise the all-dirty flag instead of per-write
    neighborhood bookkeeping — with identical semantics."""

    def test_bulk_batches_engage_the_flag(self):
        net = random_connected_graph(32, seed=9)
        proto = SpanningTreeProtocol()
        sim = Simulator(net, proto,
                        config=random_configuration(net, proto, seed=4))
        sim.run_round()  # an arbitrary start enables ~everyone
        assert sim._dirty_all  # the synchronous batch went through the flag
        assert sim.enabled_nodes() == sim.rescan_enabled()
        assert not sim._dirty_all  # refresh consumed it

    def test_synchronous_run_matches_rescan_every_round(self):
        net = random_connected_graph(32, seed=9)
        proto = SpanningTreeProtocol()
        sim = Simulator(net, proto,
                        config=random_configuration(net, proto, seed=4))
        while sim.run_round():
            assert sim.enabled_nodes() == sim.rescan_enabled()
        assert sim.is_silent()
        assert proto.is_legal(net, sim.config)
