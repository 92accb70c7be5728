"""The columnar bulk-evaluation plane, pinned to the scalar planes.

Three pillars, mirroring ``test_state_schema``'s structure one plane up:

* **ColumnStore contract**: typed per-field ``int64`` columns encode the
  slot rows strictly (exact ints in range, ``NONE`` via the reserved
  sentinel, everything else invalidates the column), the CSR adjacency
  mirrors the network, the aligned row references are zero-copy, and
  engine writes drop :attr:`ColumnStore.fresh` so the next vector
  refresh re-syncs.  The store needs numpy; these tests skip without it.
* **With and without numpy**: a run with numpy (columnar refreshes) and
  a ``REPRO_NO_NUMPY`` run (no store: the scalar slot rule, as on a
  numpy-less host) are bit-identical.
* **Column path ≡ slot path ≡ referee, golden**: entire executions of
  every vectorized protocol — ``sst`` and its ``adhoc-bfs`` alias —
  produce bit-identical
  ``(rounds, moves, final configuration)`` across the full daemon grid
  whether the engine vectorizes all-dirty refreshes
  (``use_vector_rules=True``) or stays on the compiled slot rules, with
  and without the cross-checking referee comparing every cached
  proposal with the name-keyed referee at every selection.  The
  ``sst``+``cert-digest`` composition rides the same grid: it never
  vectorizes (a composition has no vector rule), so the flag must leave
  its execution untouched.
"""

import hashlib

import pytest

from repro.baselines.dim_bfs import AdHocBFSProtocol
from repro.certify.oracle import DigestLayer
from repro.core.sst import SpanningTreeProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import guided_mst_protocol
from repro.graphs import random_connected_graph
from repro.runtime import (
    ALL_SCHEDULER_FACTORIES,
    NONE,
    ComposedProtocol,
    Simulator,
    random_configuration,
)
from repro.runtime import simulator as simulator_module
from repro.runtime.columns import (
    NONE_SENTINEL,
    ColumnStore,
    enabled_diff,
    numpy_or_none,
)

from crosscheck import CrossCheckingScheduler

#: every protocol family that compiles a vector rule
VECTOR_PROTOCOLS = {
    "sst": lambda: SpanningTreeProtocol(),
    "adhoc-bfs": lambda: AdHocBFSProtocol(),
}

#: the column grid: the vectorized families plus a composition over
#: ``sst``, which the engine keeps on the scalar slot rule
GRID_PROTOCOLS = {
    **VECTOR_PROTOCOLS,
    "sst+digest": lambda: ComposedProtocol(
        [SpanningTreeProtocol(), DigestLayer(fields=("rid", "par", "d"))],
        name="sst+digest"),
}


def _hash(config) -> str:
    canon = repr(tuple(sorted((v, tuple(sorted(s.items())))
                              for v, s in config.items())))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


#: the store exists only where numpy does
needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None,
    reason="numpy unavailable (or REPRO_NO_NUMPY set): no column store")


def _sst_sim(n=10, seed=3, cfg_seed=5, **kw) -> Simulator:
    net = random_connected_graph(n, seed=seed)
    proto = SpanningTreeProtocol()
    return Simulator(net, proto,
                     config=random_configuration(net, proto, seed=cfg_seed),
                     **kw)


@needs_numpy
class TestColumnStoreContract:
    def test_engine_builds_the_store_only_when_vectorizable(self,
                                                            monkeypatch):
        sim = _sst_sim()
        assert sim._columns is not None and sim._vector_rule is not None
        # the testing escape hatch forces the scalar paths
        off = _sst_sim(use_vector_rules=False)
        assert off._columns is None and off._vector_rule is None
        # no vector_step -> no store at all
        net = random_connected_graph(8, seed=2)
        plain = Simulator(net, MalleableTreeProtocol())
        assert plain._columns is None and plain._vector_rule is None
        # a composition always runs on the scalar slot rule, so it must
        # not even construct a store
        built = []

        class CountingStore(ColumnStore):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "ColumnStore", CountingStore)
        weighted = random_connected_graph(8, seed=2, weighted=True)
        composed = Simulator(weighted, guided_mst_protocol())
        assert composed._columns is None and composed._vector_rule is None
        assert built == []

    def test_rows_are_zero_copy_aliases(self):
        sim = _sst_sim()
        store = sim._columns
        for v in sim.net.nodes:
            assert store.rows[store.pos[v]] is sim._state[v]

    def test_csr_adjacency_mirrors_network(self):
        sim = _sst_sim(n=12, seed=7)
        net, store = sim.net, sim._columns
        assert store.ids == sorted(net.nodes)
        for i, v in enumerate(store.ids):
            lo, hi = store.nbr_offsets[i], store.nbr_offsets[i + 1]
            nbrs = net.neighbors(v)
            assert tuple(store.nbr_ids[lo:hi]) == tuple(nbrs)
            assert [store.ids[j] for j in store.nbr_index[lo:hi]] == list(nbrs)
            assert set(store.owner_index[lo:hi]) in ({i}, set())
        assert store.e == 2 * net.m
        assert store.min_degree == min(len(net.neighbors(v))
                                       for v in net.nodes)

    def test_sync_round_trips_rows_and_none(self):
        sim = _sst_sim()
        store = sim._columns.sync()
        schema = sim.schema
        assert store.valid_slot(*range(schema.width))
        for v in sim.net.nodes:
            row = sim._state[v]
            assert store.decode_row(v) == row
            for name in schema.names:
                assert store.value(v, schema.slot(name)) == row[
                    schema.slot(name)]
        # an arbitrary sst configuration contains NONE parents; they must
        # have crossed the sentinel encoding, not leaked as raw ints
        par = schema.slot("par")
        nones = [v for v in sim.net.nodes if sim._state[v][par] is NONE]
        assert nones
        for v in nones:
            assert int(store.col(par)[store.pos[v]]) == NONE_SENTINEL
            assert store.value(v, par) is NONE

    @pytest.mark.parametrize("junk", [
        True,                 # bool: repr(True) != repr(1)
        "garbage",            # non-int fault payload
        2 ** 63,              # above int64
        -(2 ** 63),           # the reserved sentinel itself
        0.5,                  # non-int numeric
    ])
    def test_unencodable_values_invalidate_the_column(self, junk):
        sim = _sst_sim()
        victim = max(sim.net.nodes)
        sim.overwrite(victim, {"d": junk})
        store = sim._columns
        assert not store.fresh  # the write staled the columns
        store.sync()
        d = sim.schema.slot("d")
        assert not store.valid_slot(d)
        assert store.valid_slot(sim.schema.slot("rid"))
        with pytest.raises(ValueError):
            store.decode_row(victim)

    def test_extreme_but_legal_ints_encode(self):
        sim = _sst_sim()
        victim = max(sim.net.nodes)
        sim.overwrite(victim, {"d": 2 ** 63 - 1})
        store = sim._columns.sync()
        d = sim.schema.slot("d")
        assert store.valid_slot(d)
        assert store.value(victim, d) == 2 ** 63 - 1

    def test_engine_writes_drop_freshness(self):
        sim = _sst_sim(scheduler=ALL_SCHEDULER_FACTORIES["central-random"](1))
        sim._columns.sync()
        assert sim._columns.fresh
        sim.run_round()  # central daemon: scalar moves, columns untouched
        assert not sim._columns.fresh


def test_enabled_diff():
    old = [2, 5]
    new = [1, 5, 7]
    assert enabled_diff(new, old) == ([1, 7], [2])
    assert enabled_diff([], new) == ([], new)


def test_store_needs_numpy(monkeypatch):
    sim = _sst_sim(use_vector_rules=False)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    with pytest.raises(RuntimeError, match="numpy"):
        ColumnStore(sim.schema, sim.net, sim._state)


class TestBackendEquality:
    """A numpy run ≡ a ``REPRO_NO_NUMPY`` run, which builds no store."""

    @needs_numpy
    def test_encoded_columns_match_cellwise(self, monkeypatch):
        """After every synchronous round, the numpy store's columns hold
        exactly the no-store run's rows, cell by cell (NONE as the
        sentinel)."""
        sim = _sst_sim(n=14, seed=11, cfg_seed=13)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        bare = _sst_sim(n=14, seed=11, cfg_seed=13)
        monkeypatch.delenv("REPRO_NO_NUMPY")
        assert sim._columns is not None and bare._columns is None
        store = sim._columns
        width = sim.schema.width
        rounds = 0
        while True:
            store.sync()
            assert store.valid_slot(*range(width))
            for s in range(width):
                want = [NONE_SENTINEL if bare._state[v][s] is NONE
                        else bare._state[v][s] for v in store.ids]
                assert [int(x) for x in store.col(s)] == want, (
                    f"slot {s} diverged after {rounds} rounds")
            moved, moved_bare = sim.run_round(), bare.run_round()
            assert moved == moved_bare
            if not moved:
                break
            rounds += 1
            assert rounds < 1_000
        assert rounds > 0 and sim.is_silent() and bare.is_silent()

    @needs_numpy
    @pytest.mark.parametrize("proto_name", sorted(GRID_PROTOCOLS))
    def test_full_run_bit_identity_across_backends(self, proto_name,
                                                   monkeypatch):
        net = random_connected_graph(10, seed=17)
        outcomes = []
        for disable in ("", "1"):
            monkeypatch.setenv("REPRO_NO_NUMPY", disable)
            proto = GRID_PROTOCOLS[proto_name]()
            cfg = random_configuration(net, proto, seed=19)
            sim = Simulator(net, proto, config=cfg)
            assert (sim._columns is not None) == (
                proto_name in VECTOR_PROTOCOLS and not disable)
            result = sim.run(max_rounds=50_000)
            assert result.silent
            outcomes.append((result.rounds, result.moves, _hash(sim.config)))
        assert outcomes[0] == outcomes[1], (
            f"{proto_name}: the run without numpy diverged")


class TestColumnPathEqualsScalarPaths:
    """Golden bit-identity over the protocol × daemon grid: vectorized and
    slot-scalar runs, each plain and under the cross-checking referee
    (every cached proposal compared with the name-keyed referee at every
    selection)."""

    @pytest.mark.parametrize("sched_name", sorted(ALL_SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("proto_name", sorted(GRID_PROTOCOLS))
    def test_full_run_bit_identity(self, proto_name, sched_name):
        net = random_connected_graph(10, seed=29)
        outcomes = []
        for vector, xcheck in ((True, False), (False, False),
                               (True, True), (False, True)):
            proto = GRID_PROTOCOLS[proto_name]()
            cfg = random_configuration(net, proto, seed=31)
            sched = ALL_SCHEDULER_FACTORIES[sched_name](37)
            if xcheck:
                sched = CrossCheckingScheduler(sched)
            sim = Simulator(net, proto, sched, config=cfg,
                            use_vector_rules=vector)
            if xcheck:
                sched.sim = sim
            assert (sim._vector_rule is not None) == (
                vector and proto_name in VECTOR_PROTOCOLS
                and numpy_or_none() is not None)
            result = sim.run(max_rounds=50_000)
            assert result.silent
            outcomes.append((result.rounds, result.moves, _hash(sim.config)))
        assert len(set(outcomes)) == 1, (
            f"{proto_name} under {sched_name}: the engine planes "
            f"diverged: {outcomes}")

    @needs_numpy
    def test_synchronous_rounds_actually_vectorize(self):
        sim = _sst_sim(n=16, seed=41, cfg_seed=43)
        calls = []
        inner = sim._vector_rule

        def counting(store, active):
            calls.append(1)
            return inner(store, active)

        sim._vector_rule = counting
        assert sim.run(max_rounds=1_000).silent
        # every all-dirty refresh of a synchronous run goes columnar
        assert len(calls) >= sim.rounds

    @pytest.mark.parametrize("proto_name", sorted(GRID_PROTOCOLS))
    @pytest.mark.parametrize("sched_name",
                             ["central-random", "distributed-random"])
    def test_incremental_state_matches_rescan(self, proto_name, sched_name):
        """The write-path contracts riding this plane (settles_after_move,
        fast_write_impact) must keep the incremental enabled set exactly
        equal to a from-scratch rescan after every round."""
        net = random_connected_graph(10, seed=47)
        proto = GRID_PROTOCOLS[proto_name]()
        sim = Simulator(net, proto,
                        ALL_SCHEDULER_FACTORIES[sched_name](53),
                        config=random_configuration(net, proto, seed=59))
        rounds = 0
        while sim.run_round() and rounds < 200:
            rounds += 1
            assert sim.enabled_nodes() == sim.rescan_enabled()
        assert sim.is_silent()
        assert not sim.enabled_nodes() and not sim.rescan_enabled()
