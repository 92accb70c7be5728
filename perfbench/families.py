"""The benchmark's workloads: seeded instance families, solving, judging.

A workload is a :class:`Family`; ``--seed`` derives its instance set
through :func:`instance_seeds`, and every instance is built from its own
derived seed by :func:`build_instance`.  The program under test receives
only the generated inputs (network, initial configuration, daemon).

Everything here calls the simulator through its public functions, and
looks the registry builders up on the module at call time, so the traced
run's wrappers (:mod:`perfbench.tracer`) see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.baselines.sequential_mst import kruskal_mst
from repro.certify.schemes import get_certifier
from repro.core import random_spanning_tree
from repro.experiments import registry
from repro.graphs.network import Network
from repro.runtime.dynamics.run import run_churn
from repro.runtime.metrics import max_register_bits
from repro.runtime.registers import NONE
from repro.runtime.simulator import Simulator

__all__ = ["Family", "WORKLOADS", "Instance", "instance_seeds",
           "build_instance", "round_budget", "solve", "judge", "counts"]


@dataclass(frozen=True)
class Family:
    """One workload: a seeded family of instances solved in one process.

    ``ghosts`` pins the SST convergence regime.  Seeded arbitrary SST
    configurations are bimodal: a root claim below the minimum live
    identity (a *ghost root*) costs about ``n_bound`` rounds to flush,
    and without one SST settles in a handful of rounds.  ``ghosts > 0``
    removes every accidental ghost claim and plants exactly that many
    ghost roots (distance 0, no parent); ``ghosts == 0`` removes them
    all.  ``None`` leaves the protocol's own init untouched.

    ``mst_swaps`` pins the guided-MST regime the same way.  Its work is
    roughly the number of swaps from the start tree to the MST times a
    per-swap round cost, and seeded random spanning trees spread that
    count widely; the start tree is drawn until exactly ``mst_swaps`` of
    its edges lie outside the MST, at a fixed height.

    Churn families (``churn_waves > 0``) give identity 1 to a vertex that
    carries :data:`ROOT_LEAVES` pendant leaves.  Two churn events would
    otherwise re-enter the ghost-root regime (about ``n_bound`` rounds):
    a crash of the root, which the schedule never draws for a cut vertex,
    and a joiner whose sampled register claims a root below the minimum,
    which no claim can be when the minimum is 1.  The root stays a cut
    vertex while any one of its leaves is still a leaf; a single leaf
    was not enough (an edge added to it, then a root crash, hit about
    one seed in ten).
    """

    name: str
    protocol: str
    scheduler: str
    certifier: str
    n: int
    instances: int
    init: str
    ghosts: int | None = None
    mst_swaps: int | None = None
    tree_height: int = 0
    weighted: bool = False
    churn_waves: int = 0

    def topo_params(self, topo_seed: int) -> dict[str, object]:
        n = self.n - ROOT_LEAVES if self.churn_waves else self.n
        params: dict[str, object] = {"n": n, "seed": topo_seed}
        if self.weighted:
            params["weighted"] = True
        if self.churn_waves:
            # node-join events grow into this many spare identity slots
            params["headroom"] = self.churn_waves
        return params


#: pendant leaves hung on a churn family's root (see :class:`Family`)
ROOT_LEAVES = 8


WORKLOADS: dict[str, Family] = {f.name: f for f in (
    # the fused single-mover loop, scheduler and write impact carry it
    Family(
        name="sst-central",
        protocol="sst", scheduler="central-random", certifier="sst",
        n=256, instances=4, init="arbitrary", ghosts=4),
    # every round is one columnar vector_step refresh; the fused loop idles
    Family(
        name="sst-sync",
        protocol="sst", scheduler="synchronous", certifier="sst",
        n=512, instances=3, init="arbitrary", ghosts=4),
    # many rounds of few movers through the composed slot rule and oracle
    Family(
        name="guided-mst",
        protocol="guided-mst", scheduler="synchronous",
        certifier="guided-mst", n=20, instances=32, init="random-tree",
        mst_swaps=10, tree_height=8, weighted=True),
    # the only workload that runs runtime.dynamics and per-round verify
    Family(
        name="sst-churn",
        protocol="sst", scheduler="synchronous", certifier="sst",
        n=128, instances=12, init="arbitrary", ghosts=0, churn_waves=48),
)}


def instance_seeds(family: Family, seed: int) -> list[int]:
    """The instance seeds of one benchmark seed (string seeding is stable
    across interpreters and hash seeds)."""
    rng = random.Random(f"{family.name}/{seed}")
    return [rng.getrandbits(48) for _ in range(family.instances)]


@dataclass
class Instance:
    """One built instance and, after :func:`solve`, its outcome."""

    family: Family
    sim: Simulator
    churn_seed: int
    churn: dict[str, Any] | None = None
    error: str | None = None


#: spanning trees drawn per instance when pinning ``mst_swaps``
_TREE_DRAWS = 64


def _pin_ghosts(net, config, ghosts: int, rng: random.Random):
    """Remove accidental ghost-root claims, then plant ``ghosts`` of them."""
    lo = net.min_id
    config = {v: dict(state) for v, state in config.items()}
    nodes = sorted(net.nodes)
    for v in nodes:
        if config[v]["rid"] < lo:
            config[v]["rid"] = rng.randint(lo, net.id_space)
    for v in rng.sample(nodes, ghosts):
        config[v].update(rid=rng.randint(1, lo - 1), par=NONE, d=0)
    return config


def _root_with_leaves(net: Network, rng: random.Random) -> Network:
    """The graph plus :data:`ROOT_LEAVES` pendant leaves, with fresh
    identities, on one random vertex, which takes identity 1 (swapping
    with its old holder, if any)."""
    root = rng.choice(net.nodes)
    used = set(net.nodes)
    leaves = rng.sample([i for i in range(2, net.id_space + 1) if i not in used],
                        ROOT_LEAVES)
    rename = {root: 1, 1: root} if net.min_id == 1 else {root: 1}
    return Network([rename.get(v, v) for v in net.nodes] + leaves,
                   [(rename.get(u, u), rename.get(v, v)) for u, v in net.edges]
                   + [(1, leaf) for leaf in leaves],
                   id_space=net.id_space, n_bound=net.n_bound + ROOT_LEAVES)


def _tree_seed(net, swaps: int, height: int, rng: random.Random) -> int:
    """A random-spanning-tree seed whose tree has ``swaps`` non-MST edges
    and the given height (or, where that is rare, the closest of a
    bounded draw: swap distance first, then height)."""
    mst = {frozenset(e) for e in kruskal_mst(net)}
    best: tuple[tuple[int, int], int] | None = None
    for _ in range(_TREE_DRAWS):
        seed = rng.getrandbits(32)
        tree = random_spanning_tree(net, seed=seed, root=net.min_id)
        off = sum(frozenset(e) not in mst for e in tree.edges())
        miss = (abs(off - swaps), abs(tree.height() - height))
        if best is None or miss < best[0]:
            best = (miss, seed)
        if miss == (0, 0):
            break
    return best[1]


def _draw_network(family: Family, rng: random.Random) -> Network:
    """The instance's topology, redrawn until the family's pin applies."""
    while True:
        net = registry.build_network("random",
                                     family.topo_params(rng.getrandbits(32)),
                                     random.Random(0))
        if family.churn_waves:
            return _root_with_leaves(net, rng)
        # a planted ghost needs an identity below the minimum
        if not (family.ghosts and net.min_id == 1):
            return net


def build_instance(family: Family, seed: int) -> Instance:
    """Build one instance: topology, initial configuration, daemon, engine."""
    rng = random.Random(seed)
    net = _draw_network(family, rng)
    proto, _ = registry.build_protocol(family.protocol)
    init_seed = (rng.getrandbits(32) if family.mst_swaps is None
                 else _tree_seed(net, family.mst_swaps, family.tree_height, rng))
    config, _ = registry.build_config(family.init, net, proto,
                                      random.Random(0), {"seed": init_seed})
    if family.ghosts is not None:
        config = _pin_ghosts(net, config, family.ghosts, rng)
    scheduler = registry.SCHEDULERS[family.scheduler](rng.getrandbits(32))
    sim = Simulator(net, proto, scheduler, config=config)
    return Instance(family, sim, churn_seed=rng.getrandbits(32))


def round_budget(sim: Simulator) -> int:
    """Rounds an instance may take before it counts as not converging."""
    return 200 * sim.net.n_bound


def solve(inst: Instance, max_rounds: int | None = None) -> None:
    """Run one instance to silence (then through its churn phase).

    A run that exhausts its budget or raises is recorded on the instance,
    never propagated: :func:`judge` counts it as failed.
    """
    sim = inst.sim
    try:
        sim.run(max_rounds=max_rounds or round_budget(sim))
        if inst.family.churn_waves:
            inst.churn = run_churn(
                sim, kind="mixed", waves=inst.family.churn_waves,
                seed=inst.churn_seed, certifier_key=inst.family.certifier,
                max_rounds_per_wave=round_budget(sim))
    except RuntimeError as exc:
        inst.error = f"{type(exc).__name__}: {exc}"


def judge(inst: Instance) -> str | None:
    """Why the instance failed, or None when it passed.

    Passing means: silent, legal for the task, accepted by the task's
    local certifier, and for churn every wave applied and re-silenced.
    """
    if inst.error is not None:
        return inst.error
    sim = inst.sim
    net, config = sim.net, sim.config
    if not sim.is_silent():
        return "not silent"
    if not sim.protocol.is_legal(net, config):
        return "not legal"
    cert = get_certifier(inst.family.certifier)
    try:
        decorated = cert.certify(net, config)
    except (ValueError, KeyError, TypeError) as exc:
        return f"certificate assignment failed: {exc}"
    if not cert.verify(net, decorated).accepted:
        return "rejected by the local certifier"
    if inst.family.churn_waves:
        churn = inst.churn or {}
        if churn.get("events") != inst.family.churn_waves:
            return f"churn applied {churn.get('events')} events"
        if not churn.get("silent"):
            return "churn did not re-silence"
    return None


def counts(inst: Instance) -> dict[str, int]:
    """The instance's simulated counts: exact referees across repeats."""
    sim = inst.sim
    return {
        "moves": sim.moves,
        "rounds": sim.rounds,
        "register_bits_max": max_register_bits(sim.net, sim.spec, sim.config),
    }
