"""Quickstart: build a silent self-stabilizing BFS tree from chaos.

Part 1 runs the paper's framework end to end on a small random network by
hand: start every register at adversarially corrupted values, let the
composed protocol (tree layer + PLS-guided improvement layer) run under
the synchronous daemon, and watch it reach a *silent* configuration whose
parent pointers form a BFS tree of the minimum-identity node.

Part 2 runs the *same* experiment as a declarative
:class:`~repro.experiments.ExperimentSpec` through the campaign runner —
the one-liner form every campaign of the ``python -m repro`` CLI builds
on.

    python examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.bfs import is_bfs_tree
from repro.core.swap import tree_of_config
from repro.core.tasks import guided_bfs_protocol
from repro.experiments import ExperimentSpec, execute
from repro.graphs import random_connected_graph
from repro.runtime import Simulator, max_register_bits, random_configuration


def manual_run() -> None:
    net = random_connected_graph(12, seed=7)
    print(f"network: n={net.n}, m={net.m}, identities={list(net.nodes)}")

    protocol = guided_bfs_protocol()
    config = random_configuration(net, protocol, seed=42)  # total corruption
    sim = Simulator(net, protocol, config=config)

    result = sim.run(max_rounds=400 * net.n * net.n)
    tree = tree_of_config(net, sim.config)

    print(f"stabilized: silent={result.silent} after {result.rounds} rounds "
          f"({result.moves} moves)")
    print(f"root (elected leader): {tree.root}  (min identity: {net.min_id})")
    print(f"BFS tree: {is_bfs_tree(net, tree)}")
    print(f"max register size: "
          f"{max_register_bits(net, sim.spec, sim.config)} bits/node")
    print("parent pointers:")
    for v in sorted(net.nodes):
        print(f"  {v:>4} -> {tree.parent(v)}")

    assert result.silent and is_bfs_tree(net, tree)


def declarative_run() -> None:
    spec = ExperimentSpec(
        experiment="EXP-QUICKSTART",
        protocol="guided-bfs",
        topology="random", topo_params={"n": 12, "seed": 7},
        scheduler="synchronous",
        init="arbitrary", init_params={"seed": 42},
    )
    record, context = execute(spec, root_seed=0)
    m = record["metrics"]
    print(f"declared:   {spec.label}")
    print(f"fingerprint {record['fingerprint']} (keys the campaign store; "
          f"reruns are skipped)")
    print(f"stabilized: silent={m['silent']} legal={m['legal']} after "
          f"{m['rounds']} rounds ({m['moves']} moves), "
          f"{m['max_register_bits']} bits/node")
    assert m["silent"] and m["legal"]
    print("scale it up: python -m repro campaign run --campaign bfs")


def main() -> None:
    print("== part 1: by hand ==")
    manual_run()
    print()
    print("== part 2: the same run, declared as campaign data ==")
    declarative_run()
    print("OK")


if __name__ == "__main__":
    main()
