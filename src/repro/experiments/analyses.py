"""Analysis workloads: campaign runs that are not simulator executions.

Several of the paper's claims are checked by *sequential* computations
(label-size sweeps, PLS ablations, Boruvka traces, FR-tree population
counts) rather than by running a protocol under a daemon.  Each workload
here is a pure function of its parameters and an injected RNG, so the
campaign executor schedules it exactly like a simulator run: same
fingerprinting, same store, same reports.

Every workload comes in two layers: ``*_detail`` returns
``(metrics, detail)`` where ``detail`` carries rich row data for
verbose printing (``examples/paper_figures.py``), and the
:data:`ANALYSES` registry wraps it to return only the JSON-plain
``metrics`` recorded in the store.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping

from repro.core import bfs_tree, random_spanning_tree
from repro.graphs import generators

__all__ = [
    "ANALYSES",
    "run_analysis",
    "nca_label_sizes_detail",
    "local_switch_detail",
    "switch_ablation_detail",
    "boruvka_fragments_detail",
    "fr_subclass_detail",
    "sharded_scale_detail",
]


# ----------------------------------------------------------------------
# EXP-L51: NCA label sizes (Lemma 5.1)
# ----------------------------------------------------------------------

_NCA_SHAPES: dict[str, Callable[[int, int], object]] = {
    "path": lambda n, s: generators.path_graph(n, seed=s),
    "star": lambda n, s: generators.star_graph(n, seed=s),
    "caterpillar": lambda n, s: generators.caterpillar_graph(
        max(2, n // 3), 2, seed=s),
    "random": lambda n, s: generators.random_tree_graph(n, seed=s),
}


def nca_label_sizes_detail(rng: random.Random,
                           params: Mapping[str, object]):
    """Label/certificate bits of the NCA scheme on one adversarial shape,
    with nca() correctness cross-checked on a sample of pairs."""
    from repro.labeling.nca import NCALabeling
    from repro.labeling.nca_pls import NCAPLS

    shape = str(params.get("shape", "random"))
    n = int(params.get("n", 16))
    seed = int(params.get("seed", 7))
    if shape not in _NCA_SHAPES:
        raise KeyError(f"unknown NCA shape {shape!r} "
                       f"(known: {', '.join(sorted(_NCA_SHAPES))})")
    net = _NCA_SHAPES[shape](n, seed)
    tree = bfs_tree(net)
    scheme = NCALabeling(net, tree)
    nodes = list(net.nodes)
    stride = max(1, len(nodes) // 8)
    checked = 0
    for i in range(0, len(nodes), stride):
        for j in range(0, len(nodes), stride):
            assert scheme.nca(nodes[i], nodes[j]) == tree.nca(nodes[i], nodes[j])
            checked += 1
    pls = NCAPLS()
    metrics = {
        "shape": shape,
        "n": net.n,
        "label_bits": scheme.max_encoded_bits(),
        "pls_bits": pls.max_label_bits(net, pls.prove(net, tree)),
        "pairs_checked": checked,
    }
    return metrics, {"net": net, "tree": tree, "scheme": scheme}


# ----------------------------------------------------------------------
# EXP-L41: the distributed local switch (Section IV)
# ----------------------------------------------------------------------

def local_switch_detail(rng: random.Random, params: Mapping[str, object]):
    """One distributed local switch on a ring: rounds, verifier alarms,
    and spanning-tree-invariant violations (all should be 0 alarms)."""
    from repro.core.swap import (MalleableTreeProtocol,
                                 malleable_labels_of_config, tree_of_config)
    from repro.labeling.malleable import MalleablePLS
    from repro.runtime import Simulator, SynchronousScheduler

    n = int(params.get("n", 8))
    seed = int(params.get("seed", 6))
    net = generators.ring(n, seed=seed, scramble_ids=False)
    proto = MalleableTreeProtocol()
    tree = bfs_tree(net)
    pick = None
    for u in net.nodes:
        if tree.parent(u) is None:
            continue
        sub = tree.subtree_nodes(u)
        for z in net.neighbors(u):
            if z != tree.parent(u) and z not in sub:
                pick = (u, z)
                break
        if pick:
            break
    assert pick is not None, "no switchable edge on this ring"
    v, w2 = pick
    pls = MalleablePLS()
    alarms = 0

    def inv(nn, cfg):
        nonlocal alarms
        try:
            tree_of_config(nn, cfg)
        except ValueError:
            return False
        if not pls.verify(nn, malleable_labels_of_config(nn, cfg)).accepted:
            alarms += 1
        return True

    sim = Simulator(net, proto, SynchronousScheduler(),
                    config=proto.legal_configuration(net, tree),
                    invariant=inv)
    sim.overwrite(v, {"swt": w2})
    result = sim.run(max_rounds=60 * n)
    assert result.silent
    metrics = {
        "n": n,
        "rounds": result.rounds,
        "alarms": alarms,
        "loop_violations": result.invariant_violations,
    }
    return metrics, {"net": net, "tree": tree, "switch": (v, w2)}


# ----------------------------------------------------------------------
# EXP-ABL: why the redundant (d, s) labeling (Section IV)
# ----------------------------------------------------------------------

def switch_ablation_detail(rng: random.Random, params: Mapping[str, object]):
    """Project one full switch trace onto the single-entry schemes; count
    the configurations each scheme fails to carry through."""
    from repro.labeling.malleable import MalleablePLS
    from repro.labeling.tree_pls import (DistanceLabel, DistancePLS,
                                         SizeLabel, SizePLS)

    n = int(params.get("n", 14))
    seed = int(params.get("seed", 13))
    net = generators.random_connected_graph(n, seed=seed)
    tree = bfs_tree(net)
    pls = MalleablePLS()
    # pick a switch that actually moves a subtree (so distances get pruned:
    # the ablation needs both pruning dimensions exercised)
    trace = None
    for e in tree.non_tree_edges():
        for f in tree.fundamental_cycle_edges(e):
            cand = pls.full_switch_trace(net, tree, e, f)
            if any(lab.d is None for cfg in cand.configs
                   for lab in cfg.values()):
                trace = cand
                break
        if trace:
            break
    assert trace is not None, "no subtree-moving switch in this instance"

    dist_pls, size_pls = DistancePLS(), SizePLS()
    alarms = {"distance-only": 0, "size-only": 0}
    unverifiable = {"distance-only": 0, "size-only": 0}
    for cfg in trace.configs:
        assert pls.verify(net, cfg).accepted
        if any(lab.d is None for lab in cfg.values()):
            unverifiable["distance-only"] += 1
        else:
            dl = {v: DistanceLabel(l.rid, l.par, l.d) for v, l in cfg.items()}
            if not dist_pls.verify(net, dl).accepted:
                alarms["distance-only"] += 1
        if any(lab.s is None for lab in cfg.values()):
            unverifiable["size-only"] += 1
        else:
            sl = {v: SizeLabel(l.rid, l.par, l.s) for v, l in cfg.items()}
            if not size_pls.verify(net, sl).accepted:
                alarms["size-only"] += 1
    metrics = {
        "configs": len(trace.configs),
        "malleable_alarms": 0,
        "distance_alarms": alarms["distance-only"],
        "distance_missing": unverifiable["distance-only"],
        "size_alarms": alarms["size-only"],
        "size_missing": unverifiable["size-only"],
    }
    return metrics, {"net": net, "tree": tree, "trace": trace}


# ----------------------------------------------------------------------
# EXP-F2: the Boruvka fragment hierarchy + red-rule improvements (Fig. 2)
# ----------------------------------------------------------------------

def boruvka_fragments_detail(rng: random.Random,
                             params: Mapping[str, object]):
    """Fragment trace of a random tree and the red-rule swap sequence that
    drives it to the MST; every swap must grow the MST overlap by one."""
    import math

    from repro.baselines import kruskal_mst
    from repro.core.mst import MSTPotential
    from repro.labeling.mst_pls import boruvka_trace, phi_values

    n = int(params.get("n", 12))
    seed = int(params.get("seed", 9))
    tree_seed = int(params.get("tree_seed", 10))
    net = generators.random_connected_graph(n, seed=seed, weighted=True)
    tree = random_spanning_tree(net, seed=tree_seed, root=net.min_id)
    trace = boruvka_trace(net, tree)
    k = len(trace[net.min_id])
    assert k <= math.ceil(math.log2(net.n)) + 1
    kk, phis = phi_values(net, tree)
    phi = kk * net.n - sum(phis.values())

    pot = MSTPotential()
    mst = kruskal_mst(net)
    cur = tree
    improvements = []
    while True:
        pair = pot.find_improvement(net, cur)
        if pair is None:
            break
        e, f = pair
        before = len(cur.edges() & mst)
        cur = cur.swap(e, f)
        after = len(cur.edges() & mst)
        improvements.append((e, f, before, after, pot.value(net, cur)))
        assert after == before + 1
    assert cur.edges() == mst
    metrics = {
        "n": net.n,
        "levels": k,
        "phi_start": phi,
        "red_rule_swaps": len(improvements),
    }
    return metrics, {"net": net, "tree": tree, "boruvka_trace": trace,
                     "improvements": improvements}


# ----------------------------------------------------------------------
# EXP-P81: FR-trees are a strict subclass of near-MDST (Proposition 8.1)
# ----------------------------------------------------------------------

def fr_subclass_detail(rng: random.Random, params: Mapping[str, object]):
    """Population counts over random trees on random graphs: near-optimal
    trees the FR verifier rejects exist, and every FR-tree is near-optimal."""
    from repro.baselines import exact_minimum_degree
    from repro.core.fr import fuerer_raghavachari, is_fr_tree

    n = int(params.get("n", 8))
    graphs = int(params.get("graphs", 25))
    trees = int(params.get("trees", 4))
    extra_edges = int(params.get("extra_edges", 6))
    near_opt = near_opt_not_fr = fr_total = fr_within_one = 0
    for seed in range(graphs):
        net = generators.random_connected_graph(
            n, extra_edges=extra_edges, seed=seed)
        opt = exact_minimum_degree(net)
        for tseed in range(trees):
            t = random_spanning_tree(net, seed=tseed)
            fr = is_fr_tree(net, t)
            if t.max_degree() <= opt + 1:
                near_opt += 1
                if not fr:
                    near_opt_not_fr += 1
            if fr:
                fr_total += 1
                if t.max_degree() <= opt + 1:
                    fr_within_one += 1
        run = fuerer_raghavachari(net)
        assert run.degree <= opt + 1
    metrics = {
        "graphs": graphs,
        "trees_per_graph": trees,
        "near_opt": near_opt,
        "near_opt_not_fr": near_opt_not_fr,
        "fr_total": fr_total,
        "fr_within_one": fr_within_one,
    }
    return metrics, {}


# ----------------------------------------------------------------------
# EXP-SCALE: sharded large-n executions (ROADMAP item 2)
# ----------------------------------------------------------------------

def sharded_scale_detail(rng: random.Random,
                         params: Mapping[str, object]):
    """One shard-parallel synchronous execution at campaign scale.

    Runs the partitioned engine (:mod:`repro.runtime.sharding`) on the
    ``topology`` spec, resolved by
    :func:`~repro.experiments.registry.build_topology_spec` (with an
    ``implicit-*`` topology the whole-network adjacency never
    materializes in any process), and streams the run as a *unified
    convergence trace* (the schema-versioned :mod:`repro.obs` JSONL,
    one row per round with the per-shard breakdown; never a
    materialized configuration trace).  The record keeps only the
    aggregates plus per-shard peak RSS and the trace filename; the
    trace directory is ``REPRO_SCALE_TRACE_DIR`` (default
    ``campaigns/traces``).

    The injected ``rng`` is deliberately unused: sharded executions are
    a pure function of ``(topology, protocol, shards, init_seed)`` —
    the per-node initialization draws from keyed streams, nothing else
    draws at all — which is exactly the property the equivalence suite
    pins.
    """
    import os
    from pathlib import Path

    from repro.experiments.registry import build_protocol, build_topology_spec
    from repro.obs.probes import TraceRecorder
    from repro.runtime.sharding import ShardedSimulator, plan_partition

    topo_spec = str(params.get("topology", "implicit-grid:rows=100,cols=100"))
    protocol = str(params.get("protocol", "sst"))
    shards = int(params.get("shards", 4))
    init_seed = int(params.get("init_seed", 7))
    rounds = int(params.get("rounds", 10_000))
    require_silence = bool(int(params.get("require_silence", 1)))

    topo = build_topology_spec(topo_spec)
    plan = plan_partition(topo, shards)
    trace_dir = Path(os.environ.get("REPRO_SCALE_TRACE_DIR",
                                    "campaigns/traces"))
    trace_name = (
        f"{protocol}-{plan.fingerprint}-k{shards}-s{init_seed}.jsonl")
    recorder = TraceRecorder(
        trace_dir / trace_name,
        header_extra={"topology": topo_spec, "init_seed": init_seed})

    with ShardedSimulator(topo, lambda: build_protocol(protocol)[0], plan,
                          init_seed=init_seed) as sharded:
        result = sharded.run(max_rounds=rounds,
                             require_silence=require_silence,
                             recorder=recorder)

    metrics = {
        "n": topo.n,
        "shards": shards,
        "method": plan.method,
        "plan_fingerprint": plan.fingerprint,
        "cut_edges": plan.cut_edges,
        "max_boundary": max(plan.boundary),
        "rounds": result.rounds,
        "moves": result.moves,
        "silent": result.silent,
        "config_digest": result.fingerprint,
        # per-shard peak RSS is inherently run-volatile (like "timing");
        # everything above is deterministic and re-run-stable
        "peak_rss_kb": result.peak_rss_kb,
        # the filename only (deterministic): the directory is
        # environment plumbing, like the store path
        "trace": trace_name,
        "trace_rounds": result.rounds,
    }
    return metrics, {}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _metrics_only(fn):
    def wrapped(rng: random.Random, params: Mapping[str, object]):
        metrics, _ = fn(rng, params)
        return metrics
    wrapped.__name__ = fn.__name__.replace("_detail", "")
    return wrapped


#: ``fn(rng, params) -> metrics`` — the store-facing entry points.
ANALYSES: dict[str, Callable[..., dict[str, object]]] = {
    "nca-label-sizes": _metrics_only(nca_label_sizes_detail),
    "local-switch": _metrics_only(local_switch_detail),
    "switch-ablation": _metrics_only(switch_ablation_detail),
    "boruvka-fragments": _metrics_only(boruvka_fragments_detail),
    "fr-subclass": _metrics_only(fr_subclass_detail),
    "sharded-scale": _metrics_only(sharded_scale_detail),
}


def run_analysis(name: str, rng: random.Random,
                 params: Mapping[str, object]) -> dict[str, object]:
    if name not in ANALYSES:
        raise KeyError(
            f"unknown analysis {name!r} "
            f"(known: {', '.join(sorted(ANALYSES))})")
    return ANALYSES[name](rng, dict(params))
