"""Registries mapping spec keys to runnable objects.

The campaign model (:mod:`repro.experiments.spec`) is plain data; this
module is the single place where its string keys resolve to protocols,
topology generators, initial-configuration strategies and analysis
workloads.  Adding a workload = adding a registry entry; campaigns and the
CLI pick it up by name.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.core import bfs_tree, dfs_tree, random_spanning_tree
from repro.core.bfs import BFSPotential
from repro.core.swap import MalleableTreeProtocol, tree_of_config
from repro.graphs import generators
from repro.graphs.network import Network
from repro.runtime import random_configuration
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import ALL_SCHEDULER_FACTORIES
from repro.runtime.simulator import Config, Simulator

__all__ = [
    "ProtocolEntry",
    "PROTOCOLS",
    "TOPOLOGIES",
    "INITS",
    "SCHEDULERS",
    "build_network",
    "build_topology_spec",
    "parse_topology_spec",
    "resolve_topology",
    "build_protocol",
    "build_config",
    "tree_seeded_config",
]


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------

TOPOLOGIES: dict[str, Callable[..., Network]] = {
    "ring": generators.ring,
    "path": generators.path_graph,
    "complete": generators.complete_graph,
    "star": generators.star_graph,
    "wheel": generators.wheel_graph,
    "grid": generators.grid_graph,
    "random": generators.random_connected_graph,
    "random-tree": generators.random_tree_graph,
    "lollipop": generators.lollipop_graph,
    "caterpillar": generators.caterpillar_graph,
    "hypercube": generators.hypercube_graph,
    "theta": generators.theta_graph,
}


def build_network(topology: str, params: Mapping[str, object],
                  rng: random.Random) -> Network:
    """Instantiate a topology.  Campaign specs usually pin an explicit
    ``seed`` in their params (a topology is part of the experiment's
    identity); when they do not, the run's derived topology stream is
    injected so parallel workers never share RNG state.

    ``headroom`` (not a generator kwarg) widens the instance's
    ``n_bound`` and ``id_space`` by that many slots above the built
    size — the room node-join churn events grow into (the bounds stay
    incorruptible constants; they are simply declared larger up front).
    """
    if topology not in TOPOLOGIES:
        raise KeyError(
            f"unknown topology {topology!r} "
            f"(known: {', '.join(sorted(TOPOLOGIES))})")
    kwargs = dict(params)
    headroom = int(kwargs.pop("headroom", 0) or 0)
    if headroom < 0:
        raise ValueError(f"headroom must be >= 0, got {headroom}")
    if "seed" not in kwargs:
        kwargs["rng"] = rng
    net = TOPOLOGIES[topology](**kwargs)
    if not headroom:
        return net
    return Network(net.nodes, net.edges,
                   weights=net.weights if net.weighted else None,
                   id_space=net.id_space + headroom,
                   n_bound=net.n + headroom)


def resolve_topology(name: str, params: Mapping[str, object]):
    """Build a topology by name, whichever family it belongs to.

    Registry names materialize through :func:`build_network` with a
    fixed rng (a ``seed`` parameter pins the draw); ``implicit-*`` names
    resolve through the lazy family (:mod:`repro.graphs.implicit`,
    imported only when asked for), so the whole-network adjacency never
    materializes.  The one place that decides between the two: the
    shard CLI, the sharded pinned workloads and the ``sharded-scale``
    analysis all come through here.
    """
    if name in TOPOLOGIES:
        try:
            return build_network(name, params, random.Random(0))
        except TypeError as exc:
            # a missing or unexpected keyword is a spec error, exactly as
            # the implicit family reports it
            raise ValueError(f"{name}: {exc}") from None
    from repro.graphs.implicit import IMPLICIT_TOPOLOGIES, build_topology
    if name not in IMPLICIT_TOPOLOGIES:
        known = sorted(TOPOLOGIES) + sorted(IMPLICIT_TOPOLOGIES)
        raise ValueError(f"unknown topology {name!r}; "
                         f"known: {', '.join(known)}")
    return build_topology(name, dict(params))


def parse_topology_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Parse ``name:key=val,key=val`` into (name, params)."""
    name, _, rest = spec.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(
                    f"bad topology parameter {part!r} (expected key=value)")
            try:
                params[key.strip()] = int(val)
            except ValueError:
                raise ValueError(
                    f"topology parameter {key!r} must be an integer, "
                    f"got {val!r}") from None
    return name, params


def build_topology_spec(spec: str):
    """Build a topology from a spec string such as
    ``implicit-grid:rows=64,cols=64`` or ``random:n=512,seed=42``."""
    return resolve_topology(*parse_topology_spec(spec))


# ----------------------------------------------------------------------
# protocols
# ----------------------------------------------------------------------

def _make_sst() -> Protocol:
    from repro.core.sst import SpanningTreeProtocol
    return SpanningTreeProtocol()


def _make_malleable() -> Protocol:
    return MalleableTreeProtocol()


def _make_guided_bfs() -> Protocol:
    from repro.core.tasks import guided_bfs_protocol
    return guided_bfs_protocol()


def _make_guided_mst() -> Protocol:
    from repro.core.tasks import guided_mst_protocol
    return guided_mst_protocol()


def _make_guided_mdst() -> Protocol:
    from repro.core.tasks import guided_mdst_protocol
    return guided_mdst_protocol()


def _make_nca_build() -> Protocol:
    from repro.core.tasks import NCALabelLayer
    from repro.runtime.protocol import ComposedProtocol
    return ComposedProtocol([MalleableTreeProtocol(), NCALabelLayer()],
                            name="tree+nca")


def _make_adhoc_bfs() -> Protocol:
    from repro.baselines.dim_bfs import AdHocBFSProtocol
    return AdHocBFSProtocol()


def _make_compact_mst() -> Protocol:
    from repro.baselines.compact_mst import CompactNonSilentMST
    return CompactNonSilentMST()


def _make_bgr_mdst() -> Protocol:
    from repro.baselines.bgr_mdst import BigMemoryMDST
    return BigMemoryMDST()


def _bfs_metrics(net: Network, proto: Protocol, sim: Simulator,
                 context: Mapping[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    start = context.get("start_tree")
    if start is not None:
        out["phi_start"] = BFSPotential().value(net, start)
    return out


def _mst_metrics(net: Network, proto: Protocol, sim: Simulator,
                 context: Mapping[str, object]) -> dict[str, object]:
    from repro.labeling.mst_pls import MSTPLS
    try:
        tree = tree_of_config(net, sim.config)
    except ValueError:
        return {}
    pls = MSTPLS()
    return {
        "cert_bits": pls.max_label_bits(net, pls.prove(net, tree)),
        "tree_weight": tree.total_weight(),
    }


def _mdst_metrics(net: Network, proto: Protocol, sim: Simulator,
                  context: Mapping[str, object]) -> dict[str, object]:
    from repro.baselines import exact_minimum_degree
    from repro.core.fr import fr_marking
    from repro.labeling.fr_pls import FRTreePLS
    try:
        tree = tree_of_config(net, sim.config)
    except ValueError:
        return {}
    marking = fr_marking(net, tree)
    out: dict[str, object] = {
        "tree_degree": tree.max_degree(),
        "is_fr": marking.is_fr,
        "cert_bits": FRTreePLS().max_label_bits(
            net, FRTreePLS().prove(net, tree, marking)),
    }
    if net.n <= 16:  # the exact oracle is exponential; campaigns stay small
        out["opt_degree"] = exact_minimum_degree(net)
    return out


def _nca_build_metrics(net: Network, proto: Protocol, sim: Simulator,
                       context: Mapping[str, object]) -> dict[str, object]:
    from repro.core.tasks import NCALabelLayer
    start = context.get("start_tree")
    if start is None:
        try:
            start = tree_of_config(net, sim.config)
        except ValueError:
            return {"labels_ok": False}
    return {"labels_ok": NCALabelLayer.labels_ok(net, sim.config, start)}


@dataclass(frozen=True)
class ProtocolEntry:
    """A runnable protocol plus its task-specific measurement hooks.

    ``extra_metrics(net, proto, sim, context) -> dict`` runs after the
    simulation and may add task-level columns (certificate bits, tree
    degree, potential of the start tree, ...) to the run record; it must
    return JSON-plain values.  ``certifier`` names the task's
    :mod:`repro.certify` local-certification scheme; when set, every run
    records ``locally_certified`` — whether the final configuration,
    decorated by the certificate assigner, is accepted by every node's
    neighborhood-only verifier.
    """

    factory: Callable[[], Protocol]
    extra_metrics: Callable[..., dict[str, object]] | None = None
    certifier: str | None = None


PROTOCOLS: dict[str, ProtocolEntry] = {
    "sst": ProtocolEntry(_make_sst, certifier="sst"),
    "malleable-tree": ProtocolEntry(_make_malleable),
    "guided-bfs": ProtocolEntry(_make_guided_bfs, _bfs_metrics,
                                certifier="guided-bfs"),
    "guided-mst": ProtocolEntry(_make_guided_mst, _mst_metrics,
                                certifier="guided-mst"),
    "guided-mdst": ProtocolEntry(_make_guided_mdst, _mdst_metrics,
                                 certifier="guided-mdst"),
    "nca-build": ProtocolEntry(_make_nca_build, _nca_build_metrics,
                               certifier="nca-build"),
    # the ad hoc baseline shares SST's registers, so SST's certificate
    # scheme certifies its stabilized configurations too
    "adhoc-bfs": ProtocolEntry(_make_adhoc_bfs, certifier="sst"),
    "compact-mst": ProtocolEntry(_make_compact_mst),
    "bgr-mdst": ProtocolEntry(_make_bgr_mdst),
}


def build_protocol(name: str) -> tuple[Protocol, ProtocolEntry]:
    if name not in PROTOCOLS:
        raise KeyError(
            f"unknown protocol {name!r} "
            f"(known: {', '.join(sorted(PROTOCOLS))})")
    entry = PROTOCOLS[name]
    return entry.factory(), entry


# ----------------------------------------------------------------------
# initial configurations
# ----------------------------------------------------------------------

def tree_seeded_config(net: Network, proto: Protocol, tree) -> Config:
    """A configuration whose tree layer is legal on ``tree`` with task-layer
    defaults — the standard starting point for improvement measurements."""
    base = MalleableTreeProtocol().legal_configuration(net, tree)
    cfg = proto.initial_configuration(net)
    for v in net.nodes:
        cfg[v].update(base[v])
    return cfg


def _init_defaults(net, proto, rng, params):
    return None, {}


def _init_arbitrary(net, proto, rng, params):
    if "seed" in params:
        rng = random.Random(params["seed"])
    return random_configuration(net, proto, rng=rng), {}


def _init_dfs_tree(net, proto, rng, params):
    tree = dfs_tree(net)
    return tree_seeded_config(net, proto, tree), {"start_tree": tree}


def _init_bfs_tree(net, proto, rng, params):
    tree = bfs_tree(net, root=params.get("root", net.min_id))
    return tree_seeded_config(net, proto, tree), {"start_tree": tree}


def _init_random_tree(net, proto, rng, params):
    seed = params.get("seed", rng.randrange(2 ** 31))
    tree = random_spanning_tree(net, seed=seed,
                                root=params.get("root", net.min_id))
    return tree_seeded_config(net, proto, tree), {"start_tree": tree}


#: ``fn(net, proto, rng, params) -> (config | None, context)`` — None means
#: "use the protocol's all-defaults configuration".
INITS: dict[str, Callable[..., tuple[Config | None, dict[str, object]]]] = {
    "defaults": _init_defaults,
    "arbitrary": _init_arbitrary,
    "dfs-tree": _init_dfs_tree,
    "bfs-tree": _init_bfs_tree,
    "random-tree": _init_random_tree,
}


def build_config(init: str, net: Network, proto: Protocol,
                 rng: random.Random, params: Mapping[str, object]):
    if init not in INITS:
        raise KeyError(
            f"unknown init {init!r} (known: {', '.join(sorted(INITS))})")
    return INITS[init](net, proto, rng, dict(params))


# ----------------------------------------------------------------------
# schedulers (delegated to the runtime's canonical factory table)
# ----------------------------------------------------------------------

SCHEDULERS = ALL_SCHEDULER_FACTORIES
