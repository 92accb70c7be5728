"""The paper's two worked figures, printed as tables.

Fig. 1(b) (Section IV): the malleable (d,s) labels of a ring through one
local switch, step by step, with pruned entries shown as ``_`` and the
Lemma 4.1 verifier's verdict on every intermediate configuration.

Fig. 2 (Section VI): the Boruvka fragment hierarchy of a random spanning
tree, node by node and level by level, followed by the red-rule
improvements (Algorithm 2) that carry the tree to the MST.

Both are pictures, not measurements: the claims they illustrate (EXP-L41
and EXP-F2) are checked by ``python -m repro campaign report --campaign
structure``.

    python examples/paper_figures.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import format_table
from repro.core import bfs_tree
from repro.experiments import spawn_rng
from repro.experiments.analyses import boruvka_fragments_detail
from repro.graphs import ring
from repro.labeling.malleable import MalleablePLS


def fig1_switch_trace() -> None:
    """Fig. 1(b): one local switch p(v): u -> w on the ring C_6."""
    net = ring(6, scramble_ids=False)
    tree = bfs_tree(net, root=1)
    pls = MalleablePLS()
    labels = pls.prove(net, tree)
    # the first non-tree edge out of some subtree: the switch target
    v, w = next((u, z) for u in net.nodes if tree.parent(u) is not None
                for z in net.neighbors(u)
                if z != tree.parent(u) and z not in tree.subtree_nodes(u))
    trace = pls.local_switch_trace(net, tree, labels, v, w)
    rows = []
    for i, cfg in enumerate(trace.configs):
        cells = []
        for u in sorted(net.nodes):
            d = "_" if cfg[u].d is None else cfg[u].d
            s = "_" if cfg[u].s is None else cfg[u].s
            cells.append(f"({d},{s})")
        accepted = pls.verify(net, cfg).accepted
        rows.append((i, *cells, "yes" if accepted else "NO"))
    print(format_table(
        f"Fig. 1(b): local switch p({v}): {tree.parent(v)} -> {w} on C_6 "
        f"(labels (d,s), _ = pruned)",
        ["step", *[f"node {u}" for u in sorted(net.nodes)], "verifier"],
        rows))


def fig2_boruvka_tables() -> None:
    """Fig. 2: the per-node Boruvka trace and the improvement column."""
    metrics, detail = boruvka_fragments_detail(
        spawn_rng(0, "detail", "analysis"),
        {"n": 12, "seed": 9, "tree_seed": 10})
    net, trace = detail["net"], detail["boruvka_trace"]
    k = metrics["levels"]
    rows = []
    for v in sorted(net.nodes):
        cells = []
        for lv in trace[v]:
            oe = ("-" if lv.out_edge is None
                  else f"{lv.out_edge[0]}-{lv.out_edge[1]}(w{lv.out_edge[2]})")
            cells.append(f"F={lv.fragment} f={oe}")
        rows.append((v, *cells))
    print(format_table(
        f"Fig. 2: Boruvka trace of a random tree (n={net.n}, k={k} levels)",
        ["node", *[f"level {i + 1}" for i in range(k)]],
        rows))
    print()
    print(format_table(
        "Fig. 2: red-rule improvements (Algorithm 2) to the MST",
        ["step", "e in", "f out", "|T&MST| before", "after", "phi"],
        [(i + 1, f"{e}", f"{f}", before, after, phi)
         for i, (e, f, before, after, phi)
         in enumerate(detail["improvements"])]))


def main() -> None:
    fig1_switch_trace()
    print()
    fig2_boruvka_tables()


if __name__ == "__main__":
    main()
