"""Named campaigns: the experiment registry of EXPERIMENTS.md as data.

Each builder returns a :class:`~repro.experiments.spec.Campaign` whose
specs regenerate one experiment family.  The CLI exposes them by name
(``python -m repro campaign run --campaign mst``), and ``campaign
report`` renders each family's table and checks its claim
(:mod:`repro.experiments.report`) from the stored records.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.experiments.spec import Campaign, ExperimentSpec, grid
from repro.runtime.scheduler import ALL_SCHEDULER_FACTORIES

__all__ = ["CAMPAIGNS", "get_campaign", "EXCLUDED_DAEMONS"]

#: Declared daemon exclusions (protocol, scheduler) -> reason.  Empty
#: since the election layer gained its adoption-soundness guard: the
#: former ``(malleable-tree, central-max-id)`` livelock — a broken node
#: oscillating between adopting a claim its neighborhood cannot support
#: and resetting — is fixed in :mod:`repro.core.swap`, so the schedulers
#: campaign executes the full protocol x daemon grid (see EXPERIMENTS.md,
#: EXP-SCHED).
EXCLUDED_DAEMONS: dict[tuple[str, str], str] = {}


def smoke(root_seed: int = 0) -> Campaign:
    """A tiny multi-protocol grid: the CI resume/parallelism canary."""
    topologies = [("ring", {"n": 6, "seed": 1}),
                  ("random", {"n": 8, "seed": 2})]
    specs = [
        ExperimentSpec(experiment="EXP-SMOKE", protocol=c["protocol"],
                       topology=c["topology"][0], topo_params=c["topology"][1],
                       scheduler=c["scheduler"], init="arbitrary")
        for c in grid(protocol=["sst", "malleable-tree"],
                      topology=topologies,
                      scheduler=["synchronous", "central-random"])
    ]
    specs += [
        ExperimentSpec(experiment="EXP-SMOKE", protocol="guided-bfs",
                       topology=name, topo_params=params,
                       scheduler="synchronous", init="arbitrary")
        for name, params in topologies
    ]
    specs.append(ExperimentSpec(
        experiment="EXP-SMOKE", protocol="sst", topology="ring",
        topo_params={"n": 6, "seed": 1}, scheduler="synchronous",
        init="arbitrary", faults=2))
    specs.append(ExperimentSpec(
        experiment="EXP-SMOKE", protocol="sst", topology="random",
        topo_params={"n": 8, "seed": 2}, scheduler="central-random",
        init="arbitrary", replicate=1,
        # one traced row: the resume canary also exercises the
        # convergence-trace plumbing (store-adjacent trace dir, probe
        # columns incl. the certified flicker probe)
        trace=1))
    return Campaign("smoke", "multi-protocol smoke grid", tuple(specs),
                    root_seed)


def engine(root_seed: int = 0, n: int = 48) -> Campaign:
    """EXP-ENGINE: SST throughput under every daemon on three topologies."""
    rows = max(2, int(n ** 0.5))
    cols = max(2, n // rows)
    topologies = [("ring", {"n": n, "seed": 1}),
                  ("grid", {"rows": rows, "cols": cols, "seed": 1}),
                  ("random", {"n": n, "seed": 42})]
    specs = [
        ExperimentSpec(experiment="EXP-ENGINE", protocol="sst",
                       topology=name, topo_params=params,
                       scheduler=sched, init="arbitrary",
                       init_params={"seed": 7}, max_rounds=2_000_000)
        for name, params in topologies
        for sched in sorted(ALL_SCHEDULER_FACTORIES)
    ]
    return Campaign("engine", f"incremental engine throughput (n~{n})",
                    tuple(specs), root_seed)


def schedulers(root_seed: int = 0) -> Campaign:
    """EXP-SCHED: stabilization under every daemon, arbitrary init."""
    specs = []
    for proto in ("sst", "malleable-tree"):
        for sched in sorted(ALL_SCHEDULER_FACTORIES):
            specs.append(ExperimentSpec(
                experiment="EXP-SCHED", protocol=proto,
                topology="random", topo_params={"n": 12, "seed": 12},
                scheduler=sched, init="arbitrary", init_params={"seed": 13},
                max_rounds=50_000,
                skip=EXCLUDED_DAEMONS.get((proto, sched), "")))
    return Campaign("schedulers", "stabilization under every daemon",
                    tuple(specs), root_seed)


def silence(root_seed: int = 0) -> Campaign:
    """EXP-SIL: silence certification and the k-fault recovery ladder."""
    specs = [
        ExperimentSpec(experiment="EXP-SIL", protocol="guided-bfs",
                       topology="random", topo_params={"n": 12, "seed": 11},
                       scheduler="synchronous", init="dfs-tree",
                       faults=k, max_rounds=96_000)
        for k in (0, 1, 2, 4, 8)
    ]
    return Campaign("silence", "silence and k-fault recovery",
                    tuple(specs), root_seed)


def bfs(root_seed: int = 0) -> Campaign:
    """EXP-T3: PLS-guided BFS (Thm 3.1) vs the ad hoc baseline."""
    cases = [("ring", {"n": 8, "seed": 3}),
             ("ring", {"n": 16, "seed": 3}),
             ("grid", {"rows": 3, "cols": 4, "seed": 4}),
             ("lollipop", {"clique_size": 4, "tail_len": 6, "seed": 5})]
    specs = []
    for name, params in cases:
        specs.append(ExperimentSpec(
            experiment="EXP-T3", protocol="guided-bfs", topology=name,
            topo_params=params, scheduler="synchronous", init="dfs-tree"))
        specs.append(ExperimentSpec(
            experiment="EXP-T3", protocol="adhoc-bfs", topology=name,
            topo_params=params, scheduler="synchronous", init="defaults"))
    return Campaign("bfs", "guided BFS vs ad hoc baseline",
                    tuple(specs), root_seed)


def mst(root_seed: int = 0, sizes: tuple[int, ...] = (8, 12, 16, 20)
        ) -> Campaign:
    """EXP-T1: silent MST vs the compact non-silent baseline."""
    specs = []
    for n in sizes:
        topo = {"n": n, "seed": n, "weighted": True}
        specs.append(ExperimentSpec(
            experiment="EXP-T1", protocol="guided-mst", topology="random",
            topo_params=topo, scheduler="synchronous", init="random-tree",
            init_params={"seed": 1}))
        specs.append(ExperimentSpec(
            experiment="EXP-T1", protocol="compact-mst", topology="random",
            topo_params=topo, scheduler="synchronous", init="defaults",
            stop="legal", max_rounds=40))
    return Campaign("mst", "silent MST headline", tuple(specs), root_seed)


def mdst(root_seed: int = 0, sizes: tuple[int, ...] = (8, 10, 12)
         ) -> Campaign:
    """EXP-T2: silent near-MDST vs the Omega(n log n) baseline."""
    specs = []
    for n in sizes:
        topo = {"n": n, "extra_edges": 2 * n, "seed": n}
        specs.append(ExperimentSpec(
            experiment="EXP-T2", protocol="guided-mdst", topology="random",
            topo_params=topo, scheduler="synchronous", init="random-tree",
            init_params={"seed": 2}))
        specs.append(ExperimentSpec(
            experiment="EXP-T2", protocol="bgr-mdst", topology="random",
            topo_params=topo, scheduler="synchronous", init="defaults",
            stop="legal", max_rounds=30))
    return Campaign("mdst", "silent near-MDST headline",
                    tuple(specs), root_seed)


def nca(root_seed: int = 0) -> Campaign:
    """EXP-L51: NCA label sizes + the distributed label construction."""
    specs = [
        ExperimentSpec(experiment="EXP-L51", analysis="nca-label-sizes",
                       analysis_params={"shape": c["shape"], "n": c["n"],
                                        "seed": 7})
        for c in grid(shape=["path", "star", "caterpillar", "random"],
                      n=[16, 64, 256])
    ]
    specs += [
        ExperimentSpec(experiment="EXP-L51", protocol="nca-build",
                       topology="random-tree", topo_params={"n": n, "seed": 8},
                       scheduler="synchronous", init="bfs-tree",
                       max_rounds=20 * n)
        for n in (8, 16, 32)
    ]
    return Campaign("nca", "NCA labels and certificates (Lemma 5.1)",
                    tuple(specs), root_seed)


def certification(root_seed: int = 0) -> Campaign:
    """EXP-CERT: every certified task stabilizes to a *locally certified*
    configuration — the certificate assigner's decoration of the final
    state is accepted by every node's neighborhood-only verifier (see
    :mod:`repro.certify`); the records carry ``locally_certified``."""
    specs = []
    cases = [
        ("sst", "random", {"n": 14, "seed": 31}, "arbitrary"),
        ("adhoc-bfs", "random", {"n": 14, "seed": 31}, "arbitrary"),
        ("guided-bfs", "random", {"n": 10, "seed": 32}, "arbitrary"),
        ("nca-build", "random-tree", {"n": 12, "seed": 33}, "arbitrary"),
        ("guided-mst", "random",
         {"n": 10, "seed": 34, "weighted": True}, "random-tree"),
        ("guided-mdst", "random",
         {"n": 10, "extra_edges": 20, "seed": 35}, "random-tree"),
    ]
    for proto, topo, params, init in cases:
        for sched in ("synchronous", "central-random"):
            specs.append(ExperimentSpec(
                experiment="EXP-CERT", protocol=proto,
                topology=topo, topo_params=params,
                scheduler=sched, init=init,
                init_params={"seed": 36},
                max_rounds=200_000))
    # recovery is re-certified too: after k transient faults the system
    # must return to a locally certified configuration
    specs.append(ExperimentSpec(
        experiment="EXP-CERT", protocol="guided-bfs",
        topology="random", topo_params={"n": 10, "seed": 32},
        scheduler="synchronous", init="arbitrary",
        init_params={"seed": 36}, faults=3, max_rounds=200_000))
    return Campaign("certification",
                    "local certification of stabilized configurations",
                    tuple(specs), root_seed)


def structure(root_seed: int = 0) -> Campaign:
    """EXP-L41 / EXP-ABL / EXP-F2 / EXP-P81: the structural analyses."""
    specs = [
        ExperimentSpec(experiment="EXP-L41", analysis="local-switch",
                       analysis_params={"n": n, "seed": 6})
        for n in (8, 16, 32)
    ]
    specs.append(ExperimentSpec(
        experiment="EXP-ABL", analysis="switch-ablation",
        analysis_params={"n": 14, "seed": 13}))
    specs.append(ExperimentSpec(
        experiment="EXP-F2", analysis="boruvka-fragments",
        analysis_params={"n": 12, "seed": 9, "tree_seed": 10}))
    specs.append(ExperimentSpec(
        experiment="EXP-P81", analysis="fr-subclass",
        analysis_params={"n": 8, "graphs": 25, "trees": 4,
                         "extra_edges": 6}))
    return Campaign("structure", "switch/ablation/fragment/FR analyses",
                    tuple(specs), root_seed)


def scale(root_seed: int = 0) -> Campaign:
    """ROADMAP item 2: the sharded n >= 10^5 tier (nightly, not smoke).

    Every row is a ``sharded-scale`` analysis: the partitioned engine on
    an implicit topology, one worker process per shard, per-round JSONL
    metrics streamed (never a materialized trace), per-shard peak RSS in
    the record.  Deliberately excluded from ``full``: these rows are
    minutes each and belong to the nightly tier.
    """
    rows = [
        # the acceptance row: an n = 10^5 SST campaign run to silence
        ("implicit-grid:rows=250,cols=400", "sst", 4),
        # a second 10^5-class shape with a short diameter (fast check
        # that the tier is not grid-shaped by accident)
        ("implicit-hypercube:dim=17", "sst", 8),
    ]
    specs = [
        ExperimentSpec(
            experiment="EXP-SCALE",
            analysis="sharded-scale",
            analysis_params=(("topology", topo), ("protocol", proto),
                             ("shards", shards), ("init_seed", 7),
                             ("rounds", 5000), ("require_silence", 1)),
        )
        for topo, proto, shards in rows
    ]
    return Campaign("scale", "sharded large-n tier (streamed metrics)",
                    tuple(specs), root_seed)


#: the churn grid's axes (see EXPERIMENTS.md, EXP-CHURN)
_CHURN_PROTOCOLS = ("sst", "adhoc-bfs", "guided-bfs")
_CHURN_KINDS = ("edge-flip", "crash-join", "crash-recover", "mixed")
#: single event vs batched churn — the super-stabilization table's rows
_CHURN_RATES = (1, 5)


def churn(root_seed: int = 0) -> Campaign:
    """EXP-CHURN: super-stabilization under seeded topology churn.

    Each row stabilizes from an arbitrary configuration, then the
    dynamics engine applies a seeded event schedule and measures
    re-silence (rounds/moves per wave) and certification-flicker
    locality (fraction of verifier rejections within 2 hops of the
    event).  ``waves`` contrasts a single event against batched churn;
    the daemon axis runs the full factory so re-silence bounds are
    daemon-independent facts, not synchronous artifacts.  Topology
    ``headroom`` gives node-join events room under the incorruptible
    ``n_bound``.
    """
    topo = {"n": 16, "seed": 11, "headroom": 4}
    specs = []
    for c in grid(protocol=list(_CHURN_PROTOCOLS),
                  scheduler=sorted(ALL_SCHEDULER_FACTORIES),
                  kind=list(_CHURN_KINDS),
                  waves=list(_CHURN_RATES)):
        specs.append(ExperimentSpec(
            experiment="EXP-CHURN", protocol=c["protocol"],
            topology="random", topo_params=topo,
            scheduler=c["scheduler"], init="arbitrary",
            init_params={"seed": 36}, max_rounds=200_000,
            events={"kind": c["kind"], "waves": c["waves"], "check": 1}))
    # one traced row: the v2 event-row plumbing exercised end to end
    specs.append(ExperimentSpec(
        experiment="EXP-CHURN", protocol="sst",
        topology="random", topo_params=topo,
        scheduler="central-random", init="arbitrary",
        init_params={"seed": 36}, max_rounds=200_000, trace=1,
        events={"kind": "mixed", "waves": 3, "check": 1}))
    return Campaign("churn", "super-stabilization under topology churn",
                    tuple(specs), root_seed)


def churn_smoke(root_seed: int = 0) -> Campaign:
    """The CI-sized corner of :func:`churn`: every protocol, two daemons,
    two schedule kinds, single-wave, one traced row — enough to exercise
    the dynamics engine, the rescan proof obligation (``check=1``), and
    the trace-v2 event rows inside the smoke budget."""
    topo = {"n": 12, "seed": 11, "headroom": 3}
    specs = []
    for c in grid(protocol=list(_CHURN_PROTOCOLS),
                  scheduler=["synchronous", "central-random"],
                  kind=["edge-flip", "crash-join"]):
        specs.append(ExperimentSpec(
            experiment="EXP-CHURN", protocol=c["protocol"],
            topology="random", topo_params=topo,
            scheduler=c["scheduler"], init="arbitrary",
            init_params={"seed": 36}, max_rounds=200_000,
            events={"kind": c["kind"], "waves": 2, "check": 1}))
    specs.append(ExperimentSpec(
        experiment="EXP-CHURN", protocol="sst",
        topology="random", topo_params=topo,
        scheduler="central-random", init="arbitrary",
        init_params={"seed": 36}, max_rounds=200_000, trace=1,
        events={"kind": "mixed", "waves": 2, "check": 1}))
    return Campaign("churn-smoke", "churn smoke grid", tuple(specs),
                    root_seed)


def full(root_seed: int = 0) -> Campaign:
    """Every campaign above, in one sweep."""
    parts = [schedulers, silence, bfs, mst, mdst, nca, structure, engine,
             certification]
    specs: list[ExperimentSpec] = []
    for part in parts:
        specs.extend(part(root_seed).specs)
    return Campaign("full", "all experiment families", tuple(specs),
                    root_seed)


CAMPAIGNS: dict[str, Callable[..., Campaign]] = {
    "smoke": smoke,
    "engine": engine,
    "schedulers": schedulers,
    "silence": silence,
    "bfs": bfs,
    "mst": mst,
    "mdst": mdst,
    "nca": nca,
    "structure": structure,
    "certification": certification,
    "churn": churn,
    "churn-smoke": churn_smoke,
    "scale": scale,
    "full": full,
}


def get_campaign(name: str, root_seed: int = 0) -> Campaign:
    if name not in CAMPAIGNS:
        raise KeyError(
            f"unknown campaign {name!r} "
            f"(known: {', '.join(sorted(CAMPAIGNS))})")
    return CAMPAIGNS[name](root_seed)
