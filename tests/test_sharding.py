"""Tests for the partitioned shard-parallel runtime (repro.runtime.sharding).

Covers the contract of the sharding PR:

* partition planning — coverage, balance, cut counting, fingerprint
  stability;
* the implicit (lazy) topology family, shard-local subnetwork cuts, and
  the one topology-spec resolver (its refusals included);
* the equivalence theorem in executable form: sharded execution is
  bit-identical to the single-process engine — same moves, rounds,
  silence, and final-configuration digest — at shard counts {1, 2, 4, 8},
  with one worker process per shard, at every round edge;
* loud failure when a worker process dies mid-run (shard id + round
  number in the exception);
* rejection of protocols whose reads cannot be sharded;
* the ``python -m repro shard`` CLI (plan printing, verify gate) and
  the sharded pinned workloads.
"""

import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cli import main as repro_main
from repro.experiments.registry import (
    TOPOLOGIES,
    build_network,
    build_protocol,
    build_topology_spec,
    parse_topology_spec,
)
from repro.graphs.implicit import (
    IMPLICIT_TOPOLOGIES,
    ImplicitTopology,
    build_topology,
    implicit_grid,
    implicit_hypercube,
    implicit_ring,
    shard_network,
)
from repro.obs.workloads import WORKLOADS, Workload
from repro.runtime.scheduler import SynchronousScheduler
from repro.runtime.sharding import (
    ShardCrashError,
    ShardedSimulator,
    per_node_configuration,
    plan_partition,
    simulator_fingerprint,
    single_process_reference,
)
from repro.runtime.sharding.engine import _FP_MOD, ShardContext, ShardWorker
from repro.runtime.simulator import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _factory(name):
    def make():
        return build_protocol(name)[0]
    return make


def _random_net(n=64, seed=11, **extra):
    return build_network("random", {"n": n, "seed": seed, **extra},
                         random.Random(0))


# ----------------------------------------------------------------------
# partition planning
# ----------------------------------------------------------------------

def test_plan_covers_every_node_exactly_once():
    topo = implicit_grid(8, 8)
    plan = plan_partition(topo, 4)
    assert plan.method == "bfs"
    owner = plan.owner_of()
    assert sorted(owner) == sorted(topo.nodes)
    assert sum(len(s) for s in plan.shards) == topo.n
    sizes = [len(s) for s in plan.shards]
    assert max(sizes) - min(sizes) <= 1
    assert plan.balance >= 1.0
    assert plan.cut_edges > 0
    # per-shard boundary widths: every shard of a connected grid has a
    # frontier, and no frontier can exceed the shard itself
    assert len(plan.boundary) == plan.k
    assert all(0 < b <= size for b, size in zip(plan.boundary, sizes))


def test_single_shard_plan_has_no_cut():
    topo = implicit_ring(12)
    plan = plan_partition(topo, 1)
    assert plan.k == 1
    assert plan.cut_edges == 0
    assert all(b == 0 for b in plan.boundary)


def test_plan_fingerprint_stability():
    topo = implicit_grid(6, 7)
    plan = plan_partition(topo, 3)
    again = plan_partition(topo, 3)
    assert again == plan
    # the fingerprint is a pure function of the node assignment
    assert again.fingerprint == plan.fingerprint
    assert plan_partition(topo, 2).fingerprint != plan.fingerprint


def test_plan_partition_works_on_materialized_networks():
    net = _random_net(48, seed=17)
    plan = plan_partition(net, 3)
    assert sorted(plan.owner_of()) == sorted(net.nodes)


# ----------------------------------------------------------------------
# implicit topologies
# ----------------------------------------------------------------------

def test_implicit_ring_neighbors_and_materialize():
    topo = implicit_ring(6)
    assert topo.n == 6
    assert set(topo.neighbors(1)) == {2, 6}
    net = topo.materialize()
    assert net.n == 6 and net.m == topo.m == 6
    for v in topo.nodes:
        assert set(net.neighbors(v)) == set(topo.neighbors(v))


def test_implicit_grid_and_hypercube_degrees():
    grid = implicit_grid(4, 5)
    assert grid.n == 20
    corner_deg = len(list(grid.neighbors(1)))
    assert corner_deg == 2
    cube = implicit_hypercube(3)
    assert cube.n == 8
    assert all(len(list(cube.neighbors(v))) == 3 for v in cube.nodes)
    assert cube.m == 12


def test_build_topology_by_name():
    topo = build_topology("implicit-grid", {"rows": 3, "cols": 4})
    assert topo.n == 12
    with pytest.raises(ValueError):
        build_topology("implicit-grid", {"rows": 3})


def test_topology_spec_resolves_both_families():
    assert parse_topology_spec("random:n=48,seed=17") == (
        "random", {"n": 48, "seed": 17})
    assert parse_topology_spec("implicit-ring: n=5") == (
        "implicit-ring", {"n": 5})
    net = build_topology_spec("random:n=48,seed=17")
    assert net.edges == _random_net(48, seed=17).edges
    grid = build_topology_spec("implicit-grid:rows=3,cols=4")
    assert isinstance(grid, ImplicitTopology)
    assert grid.n == 12 and grid.m == implicit_grid(3, 4).m


@pytest.mark.parametrize("spec, message", [
    ("implicit-grid:rows=3,cols", "bad topology parameter 'cols'"),
    ("random:n=48,seed=x", "topology parameter 'seed' must be an integer"),
    ("random:n=48,foo=1", "unexpected keyword argument 'foo'"),
    ("implicit-grid:rows=3", "missing 1 required positional argument"),
], ids=["no-equals", "not-an-integer", "registry-keyword",
        "implicit-keyword"])
def test_topology_spec_refuses_malformed_parameters(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_topology_spec(spec)


@pytest.mark.parametrize("argv, message", [
    (["plan", "implicit-grid:rows=4,cols=4", "0"],
     "error: shard count must be >= 1, got 0"),
    (["plan", "implicit-grid:rows=4,cols=4", "17"],
     "error: cannot cut 16 nodes into 17 shards"),
    (["verify", "--shards", "2,x"],
     "error: --shards takes comma-separated integers, got '2,x'"),
    (["verify", "--topology", "random:n=48,seed=17", "--shards", "2,49"],
     "error: cannot cut 48 nodes into 49 shards"),
], ids=["plan-zero", "plan-too-many", "verify-not-an-integer",
        "verify-too-many"])
def test_cli_refuses_a_bad_shard_count(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["shard", *argv])
    assert exc.value.code == message
    # refused before any run: nothing reached stdout
    assert capsys.readouterr().out == ""


def test_topology_spec_refuses_an_unknown_name_listing_both_families():
    with pytest.raises(ValueError, match="unknown topology 'torus'") as exc:
        build_topology_spec("torus:n=16")
    for name in [*TOPOLOGIES, *IMPLICIT_TOPOLOGIES]:
        assert name in str(exc.value)


def test_shard_network_keeps_global_id_space():
    topo = implicit_grid(4, 4)
    plan = plan_partition(topo, 2)
    owned = plan.shards[0]
    net, halo = shard_network(topo, owned)
    assert set(owned) <= set(net.nodes)
    assert set(halo) == set(net.nodes) - set(owned)
    # identifier bounds stay global: rules that compare against
    # id_space / n_bound must behave exactly as on the whole network
    assert net.id_space == topo.id_space
    assert net.n_bound == topo.n_bound
    # every halo node really neighbors some owned node
    owned_set = set(owned)
    for h in halo:
        assert any(u in owned_set for u in net.neighbors(h))


# ----------------------------------------------------------------------
# equivalence: sharded == single-process, bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("proto", ["sst", "adhoc-bfs"])
def test_equivalence_across_shard_counts(proto):
    net = _random_net(64, seed=11)
    factory = _factory(proto)
    ref = single_process_reference(net, factory, init_seed=3)
    for k in (1, 2, 4, 8):
        with ShardedSimulator(net, factory, k, init_seed=3) as sharded:
            res = sharded.run(max_rounds=10_000)
        assert (res.rounds, res.moves, res.silent, res.fingerprint) == ref, \
            f"{proto} diverged at k={k}"


def test_equivalence_guided_bfs_on_implicit_grid():
    topo = implicit_grid(6, 8)
    factory = _factory("guided-bfs")
    ref = single_process_reference(topo, factory, init_seed=5)
    with ShardedSimulator(topo, factory, 4, init_seed=5) as sharded:
        res = sharded.run(max_rounds=10_000)
    assert (res.rounds, res.moves, res.silent, res.fingerprint) == ref


def test_equivalence_with_worker_processes():
    net = _random_net(96, seed=23)
    factory = _factory("sst")
    ref = single_process_reference(net, factory, init_seed=7)
    with ShardedSimulator(net, factory, 2, init_seed=7) as sharded:
        res = sharded.run(max_rounds=10_000)
    assert (res.rounds, res.moves, res.silent, res.fingerprint) == ref
    assert len(res.peak_rss_kb) == 2 and all(r > 0 for r in res.peak_rss_kb)
    assert sum(res.shard_moves) == res.moves


def test_equivalence_at_every_round_edge():
    """The configurations agree after *each* round, not only at the end."""
    net = _random_net(48, seed=31)
    protocol = build_protocol("sst")[0]
    spec = protocol.register_spec(net)
    config = per_node_configuration(net, spec, 9)
    sim = Simulator(net, protocol, SynchronousScheduler(), config=config)
    with ShardedSimulator(net, _factory("sst"), 4, init_seed=9) as sharded:
        for _ in range(10_000):
            moved_ref = sim.run_round()
            moved_sharded = sharded.run_round()
            assert bool(moved_sharded) == bool(moved_ref)
            assert sharded.fingerprint() == \
                f"{simulator_fingerprint(sim) % _FP_MOD:032x}"
            if not moved_ref:
                break
        assert sim.is_silent() and sharded.is_silent()


def test_collect_config_matches_reference():
    net = _random_net(32, seed=41)
    factory = _factory("sst")
    protocol = build_protocol("sst")[0]
    spec = protocol.register_spec(net)
    config = per_node_configuration(net, spec, 2)
    sim = Simulator(net, protocol, SynchronousScheduler(), config=config)
    while sim.run_round():
        pass
    with ShardedSimulator(net, factory, 2, init_seed=2) as sharded:
        sharded.run(max_rounds=10_000)
        merged = sharded.collect_config()
    assert set(merged) == set(net.nodes)
    names = sim.schema.names
    for v in net.nodes:
        assert merged[v] == dict(zip(names, sim.rows[v]))


@pytest.mark.parametrize("proto", ["sst", "guided-bfs"])
def test_worker_enabled_sets_equal_a_rescan_every_round(proto):
    """Two in-process shard workers, exchanging halo rows, run to
    silence.  A worker re-proposes only what its halo writes and its own
    step dirtied, so at every step its owned enabled nodes must equal
    the owned part of a from-scratch rescan of its subgraph: checked
    right after the halo ingest (the nodes it steps) and after the step."""
    net = _random_net(40, seed=5)
    factory = _factory(proto)
    plan = plan_partition(net, 2)
    owner = plan.owner_of()
    workers = []
    for i, owned in enumerate(plan.shards):
        routes = {}
        for v in owned:
            dests = sorted({owner[u] for u in net.neighbors(v)} - {i})
            if dests:
                routes[v] = tuple(dests)
        workers.append(ShardWorker(ShardContext(
            shard_id=i, owned=owned, topo=net, protocol_factory=factory,
            routes=routes, init_seed=3)))

    def owned_rescan(worker):
        return [v for v in worker.sim.rescan_enabled()
                if v in worker.owned]

    stepped = []
    for worker in workers:
        sim = worker.sim

        def checked_step(nodes, _worker=worker, _step=sim.step):
            assert list(nodes) == owned_rescan(_worker)
            stepped.append(len(nodes))
            _step(nodes)

        sim.step = checked_step

    inbox = [{} for _ in workers]

    def route(outs):
        for out in outs:
            for dest, updates in out.items():
                inbox[dest].update(updates)

    route([w.initial_frontier() for w in workers])
    rounds = moves = 0
    while True:
        halo, inbox = inbox, [{} for _ in workers]
        results = [w.round(halo[i]) for i, w in enumerate(workers)]
        for worker in workers:
            enabled = [v for v in worker.sim.enabled_nodes()
                       if v in worker.owned]
            assert enabled == owned_rescan(worker)
        count = sum(c for c, _ in results)
        if not count:
            break
        rounds += 1
        moves += count
        route([out for _, out in results])
    assert sum(stepped) == moves
    total = sum(w.fingerprint() for w in workers) % _FP_MOD
    ref = single_process_reference(net, factory, init_seed=3)
    assert (rounds, moves, True, f"{total:032x}") == ref


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------

def test_unshardable_protocol_is_rejected():
    net = _random_net(32, seed=12, weighted=True)
    with pytest.raises(ValueError, match="declines sharded execution"):
        ShardedSimulator(net, _factory("guided-mst"), 2, init_seed=1)


def test_worker_crash_fails_loudly_with_shard_and_round():
    topo = implicit_grid(8, 16)
    sharded = ShardedSimulator(topo, _factory("sst"), 2, init_seed=7)
    try:
        assert sharded.run_round() > 0
        assert sharded.run_round() > 0
        victim = sharded._procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        deadline = time.monotonic() + 10
        with pytest.raises(ShardCrashError) as excinfo:
            while time.monotonic() < deadline:
                sharded.run_round()
        err = excinfo.value
        assert err.shard_id == 1
        assert err.round_no == 3
        assert "shard 1" in str(err) and "round 3" in str(err)
        # the error carries the dead worker's last telemetry frame: the
        # post-mortem anchor (which round it last completed, how many
        # moves it reported) without any trace file in play
        assert err.frame is not None
        assert err.frame["round"] == 2
        assert err.frame["moves"] > 0
        assert "last telemetry frame" in str(err)
        assert "round 2" in str(err)
    finally:
        sharded.terminate()


# ----------------------------------------------------------------------
# the CLI and the pinned workloads
# ----------------------------------------------------------------------

def test_cli_plan_prints_the_partition_fingerprint(capsys):
    assert repro_main(["shard", "plan", "implicit-grid:rows=8,cols=8",
                       "2"]) == 0
    out = capsys.readouterr().out
    plan = plan_partition(implicit_grid(8, 8), 2)
    assert f"fingerprint   {plan.fingerprint}" in out
    assert f"cut_edges     {plan.cut_edges}" in out


def test_cli_refuses_a_bad_topology_spec():
    with pytest.raises(SystemExit, match="unknown topology 'torus'"):
        repro_main(["shard", "plan", "torus:n=16", "2"])


def test_cli_verify_passes_on_small_workload(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "shard", "verify",
         "--topology", "random:n=48,seed=17", "--shards", "1,2",
         "--protocol", "sst"],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert "bit-identical" in proc.stdout


def test_sharded_workloads_are_registered():
    assert WORKLOADS["sst-1m"].shards == 8
    assert WORKLOADS["guided-bfs-262144"].shards == 8
    assert WORKLOADS["smoke-shard-sst-512"].shards == 2


def test_sharded_workload_validation():
    base = dict(protocol="sst", topology="implicit-grid",
                topo_params=(("cols", 8), ("rows", 8)),
                init="per-node", init_params=(("seed", 1),), shards=2)
    Workload(name="ok", **base)
    with pytest.raises(ValueError, match="synchronous"):
        Workload(name="bad-sched", **{**base, "scheduler": "central-random"})
    with pytest.raises(ValueError, match="per-node"):
        Workload(name="bad-init", **{**base, "init": "arbitrary"})
    with pytest.raises(ValueError, match="round-budgeted"):
        Workload(name="bad-budget", **{**base, "move_budget": 10})
