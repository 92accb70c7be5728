"""A non-silent O(log n)-bit MST baseline in the style of refs [17]/[51].

The paper's Section I-C comparison: there exist *more compact* MST
algorithms (O(log n) bits per node instead of the Theta(log^2 n) needed by
any silent one, per ref [50]) — but they are **not silent**: they verify
the tree by perpetually circulating tokens/waves, so registers keep
changing even in a legal state.

This stand-in reproduces exactly the two compared dimensions:

* per-node memory O(log n) bits: a parent pointer and a wave counter —
  no Boruvka trace, no per-level fragment certificates;
* perpetual motion: a verification wave sweeps the tree forever (each node
  increments its counter once its tree neighbors caught up), so the
  protocol never reaches a silent configuration by design.

The tree it maintains is produced by a distributed Boruvka oracle at
wave boundaries (the full message-passing engine of [51] is out of scope —
the comparison the paper makes is about silence and register width, which
this baseline reproduces faithfully; see EXPERIMENTS.md, "Substitutions",
substitution 4).
"""

from __future__ import annotations

from repro.baselines.sequential_mst import kruskal_mst
from repro.core.trees import tree_from_edges
from repro.graphs.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.registers import (
    NONE,
    RegisterSpec,
    counter_field,
    opt_id_field,
)

__all__ = ["CompactNonSilentMST"]


class CompactNonSilentMST(Protocol):
    """O(log n) bits, never silent: the refs [17]/[51] trade-off."""

    name = "compact-mst"

    #: wave counter modulus (any constant >= 3 works)
    MOD = 8

    def register_spec(self, net: Network) -> RegisterSpec:
        return RegisterSpec([
            opt_id_field("par"),
            counter_field("wave", lambda n: self.MOD - 1),
        ])

    def initial_configuration(self, net: Network):
        cfg = super().initial_configuration(net)
        tree = tree_from_edges(net, kruskal_mst(net), root=net.min_id)
        for v in net.nodes:
            cfg[v]["par"] = tree.parent(v) or NONE
        return cfg

    def fast_step_slots(self, schema):
        """The wave rule compiled to slot indices (Protocol.fast_step_slots).

        Perpetual verification wave: advance once every tree neighbor is
        at my counter or one ahead (mod MOD) — an unsynchronized unison.
        Every tree neighbor's lag test is evaluated (no early exit), so a
        junk wave value raises TypeError whatever the neighbor order.
        """
        PAR, WAVE = schema.slots("par", "wave")
        MOD = self.MOD
        HALF = MOD // 2

        def rule(net, config, me, own, nbr_rows):
            my = own[WAVE]
            mypar = own[PAR]
            behind = False
            for u, st in nbr_rows:
                if st[PAR] == me or mypar == u:
                    if (st[WAVE] - my) % MOD > HALF:
                        behind = True
            if behind:
                return None
            return {WAVE: (my + 1) % MOD}

        return rule

    def is_legal(self, net: Network, config) -> bool:
        """Legal = the parent pointers encode the MST (the wave counters
        keep spinning regardless — that is the point)."""
        edges = set()
        for v in net.nodes:
            p = config[v]["par"]
            if p is not NONE:
                edges.add((min(v, p), max(v, p)))
        return edges == kruskal_mst(net)
