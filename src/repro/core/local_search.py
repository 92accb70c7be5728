"""Algorithms 1 and 3: PLS-guided spanning tree construction (sequential).

These are the paper's reference engines::

    construct a spanning tree T of G
    while phi(T) != 0:
        find edges e and f such that phi(T + e - f) < phi(T)   # Alg. 1
        # or a well-nested sequence (e_i, f_i)                  # Alg. 3
        T <- T + e - f
    output T

The distributed silent self-stabilizing implementations in
:mod:`repro.core.bfs`, :mod:`repro.core.mst` and :mod:`repro.core.mdst`
follow the same loop through registers; the tests cross-check both against
each other.  The engines record the full improvement history (trees,
potential values, swapped edges) so the benchmarks can regenerate the
paper's convergence behaviour (phi strictly decreasing, at most phi_max
iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.potential import CyclicalDecreasingPotential, NestDecreasingPotential
from repro.core.trees import RootedTree, bfs_tree
from repro.graphs.network import Network

__all__ = ["LocalSearchRun", "pls_guided_construction", "pls_guided_construction_nested"]


@dataclass
class LocalSearchRun:
    """The record of one Algorithm 1 / Algorithm 3 execution."""

    tree: RootedTree
    iterations: int
    phi_history: list[int] = field(default_factory=list)
    swaps: list = field(default_factory=list)

    @property
    def final_phi(self) -> int:
        return self.phi_history[-1]


def pls_guided_construction(
    net: Network,
    potential: CyclicalDecreasingPotential,
    initial_tree: RootedTree | None = None,
    require_strict_decrease: bool = True,
) -> LocalSearchRun:
    """Algorithm 1 (PLS-guided spanning tree construction I).

    Raises RuntimeError if an improvement fails to decrease phi (with
    ``require_strict_decrease``) or if the iteration count exceeds phi_max —
    either would falsify the cyclical-decreasing property the paper claims.
    """
    tree = initial_tree if initial_tree is not None else bfs_tree(net)
    phi = potential.value(net, tree)
    history = [phi]
    swaps: list = []
    budget = potential.max_value(net) + 1
    while phi != 0:
        if len(swaps) >= budget:
            raise RuntimeError(
                f"{potential.name}: exceeded phi_max = {budget - 1} improvements")
        pair = potential.find_improvement(net, tree)
        if pair is None:
            raise RuntimeError(
                f"{potential.name}: phi = {phi} > 0 but no improvement found")
        e, f = pair
        tree = tree.swap(e, f)
        new_phi = potential.value(net, tree)
        if require_strict_decrease and new_phi >= phi:
            raise RuntimeError(
                f"{potential.name}: swap ({e}, {f}) did not decrease phi "
                f"({phi} -> {new_phi})")
        phi = new_phi
        history.append(phi)
        swaps.append(pair)
    return LocalSearchRun(tree=tree, iterations=len(swaps),
                          phi_history=history, swaps=swaps)


def pls_guided_construction_nested(
    net: Network,
    potential: NestDecreasingPotential,
    initial_tree: RootedTree | None = None,
) -> LocalSearchRun:
    """Algorithm 3 (PLS-guided spanning tree construction II).

    Each iteration applies one well-nested sequence of swaps; phi must
    strictly decrease per sequence (not per swap).
    """
    tree = initial_tree if initial_tree is not None else bfs_tree(net)
    phi = potential.value(net, tree)
    history = [phi]
    swaps: list = []
    budget = potential.max_value(net) + 1
    while phi != 0:
        if len(swaps) >= budget:
            raise RuntimeError(
                f"{potential.name}: exceeded phi_max = {budget - 1} sequences")
        seq = potential.find_improving_sequence(net, tree)
        if seq is None:
            raise RuntimeError(
                f"{potential.name}: phi = {phi} > 0 but no sequence found")
        for e, f in seq:
            tree = tree.swap(e, f)
        new_phi = potential.value(net, tree)
        if new_phi >= phi:
            raise RuntimeError(
                f"{potential.name}: sequence of {len(seq)} swaps did not "
                f"decrease phi ({phi} -> {new_phi})")
        phi = new_phi
        history.append(phi)
        swaps.append(seq)
    return LocalSearchRun(tree=tree, iterations=len(swaps),
                          phi_history=history, swaps=swaps)
