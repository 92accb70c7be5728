"""A non-silent Omega(n log n)-bit MDST baseline in the style of ref [16].

The Section I-C comparison for MDST: the only previously known
self-stabilizing (OPT+1)-approximation [16] is *not silent* and needs
Omega(n log n) bits per node (every node maintains global tree knowledge —
an edge list / routing table of the current spanning tree).

This stand-in reproduces the two compared dimensions:

* per-node memory Omega(n log n): each node's register holds a full copy
  of the current tree's edge set (the bit accounting charges it exactly);
* non-silence: nodes perpetually re-gossip a version counter validating
  their copies.

The tree itself is the Fuerer–Raghavachari result, so the *quality*
matches the paper's algorithm and the benchmark isolates the memory and
silence comparison (EXPERIMENTS.md, "Substitutions", substitution 4).
"""

from __future__ import annotations

from repro.core.fr import fuerer_raghavachari
from repro.graphs.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.registers import RegisterSpec, counter_field, custom_field

__all__ = ["BigMemoryMDST"]


class BigMemoryMDST(Protocol):
    """Omega(n log n) bits, never silent: the ref [16] trade-off."""

    name = "bgr-mdst"

    MOD = 8

    def register_spec(self, net: Network) -> RegisterSpec:
        def edges_bits(net_, value):
            # a global edge list: (n - 1) edges, two identities each
            return 2 * net_.id_bits() * max(1, len(value))

        def edges_corrupt(net_, node, rng):
            k = rng.randrange(1, net_.n)
            out = []
            for _ in range(k):
                u = rng.randint(1, net_.id_space)
                v = rng.randint(1, net_.id_space)
                if u != v:
                    out.append((min(u, v), max(u, v)))
            return tuple(out)

        return RegisterSpec([
            custom_field("tree_copy", lambda n, v: (), edges_bits,
                         edges_corrupt),
            counter_field("beat", lambda n: self.MOD - 1),
        ])

    def _target(self, net: Network) -> tuple:
        cached = getattr(self, "_target_cache", None)
        if cached is None or cached[0] is not net:
            # Waived as sound: the FR detector reads only the
            # *incorruptible topology* (nodes/edges/weights), never a
            # register, so its result is a per-network constant — no
            # register write can stale a cached proposal and the default
            # neighborhood invalidation is safe.  Its set iterations
            # cannot leak nondeterminism into rules either: the computed
            # tree is pinned by the instance cache for the lifetime of
            # the run, so every evaluation path sees one value.
            run = fuerer_raghavachari(net)  # statics: ignore[L, D]
            cached = (net, tuple(sorted(run.tree.edges())))
            self._target_cache = cached
        return cached[1]

    def fast_step_slots(self, schema):
        """Copy the target tree; advance the beat once no neighbor lags."""
        TREE, BEAT = schema.slots("tree_copy", "beat")
        mod, half = self.MOD, self.MOD // 2

        def rule(net, config, node, own, nbr_rows):
            target = self._target(net)
            delta = {}
            if own[TREE] != target:
                delta[TREE] = target
            # perpetual gossip: advance once no neighbor lags behind
            my = own[BEAT]
            if not any((st[BEAT] - my) % mod > half for _, st in nbr_rows):
                delta[BEAT] = (my + 1) % mod
            return delta or None

        return rule

    def is_legal(self, net: Network, config) -> bool:
        target = self._target(net)
        return all(config[v]["tree_copy"] == target for v in net.nodes)
