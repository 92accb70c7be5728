"""The distributed tree layer with loop-free edge switching (Section IV).

One protocol maintains, at every node, the register
``(rid, par, d, s, mark, swt)``:

* ``(rid, par, d, s)`` is the *redundant labeling* of the malleable scheme
  (Lemma 4.1): root identity, parent pointer, distance to the root and
  subtree size, where ``d`` / ``s`` may hold the discard symbol NONE;
* ``mark`` is the prune-size wave flag: it is raised at the old parent
  ``w`` (which sees a child requesting a switch) and at the new parent
  ``w'`` (which sees a neighbor targeting it), climbs to the root along
  parent pointers, and sizes are then pruned *downward* along the marked
  paths — exactly the wave order of Fig. 1(b), which keeps every
  intermediate configuration accepted by the Lemma 4.1 verifier;
* ``swt`` is the switch request: setting ``swt = w'`` at node ``v`` makes
  the protocol perform the three phases of the local switch
  ``p(v): w -> w'`` and clear ``swt`` at the switching step.

Rule groups (every step writes the whole register atomically):

1. *construction/adoption* (the SST rules of :mod:`repro.core.sst`): fire
   only on structural breakage — wrong root claims, invalid parents,
   counter overflow — and rebuild the tree toward the min-identity root;
2. *switching*: an initiator with ``swt = w'`` waits until ``w`` and ``w'``
   show ``(d, _)`` and all its children show ``(_, s)``, then atomically
   re-parents and updates its distance; a request that can never become
   ready (an unknown or foreign target, the node's own child, or a
   child holding a request of its own) is withdrawn;
3. *mark maintenance*: ``mark`` is a pure function of the neighborhood
   (self-correcting: spurious marks collapse);
4. *size rules*: marked nodes prune top-down (a node prunes when its parent
   is pruned or it is the root); unmarked nodes recompute ``1 + sum of
   children`` bottom-up once every child is concrete; overflow (> N) prunes
   the size entry (a full reset would discard valid election state and feed
   the central-daemon livelock, see the claim guard in the rule);
5. *distance rules*: children of a node with a pending switch prune; NONE
   propagates downward; otherwise ``d = d(parent) + 1`` chases, and
   overflow (>= N) resets — this is what flushes parent-pointer cycles.

Silence: on a correctly labeled tree with no pending ``swt`` no rule fires.
"""

from __future__ import annotations

from repro.core.trees import RootedTree
from repro.graphs.network import Network
from repro.labeling.malleable import MalleableLabel
from repro.runtime.protocol import Protocol
from repro.runtime.registers import (
    NONE,
    RegisterSpec,
    flag_field,
    id_field,
    opt_counter_field,
    opt_id_field,
)

__all__ = ["MalleableTreeProtocol", "tree_of_config", "malleable_labels_of_config"]


def tree_of_config(net: Network, config) -> RootedTree:
    """The tree encoded by the parent pointers (raises if not a tree)."""
    parent = {v: (None if config[v]["par"] is NONE else config[v]["par"])
              for v in net.nodes}
    return RootedTree(net, parent)


def malleable_labels_of_config(net: Network, config) -> dict[int, MalleableLabel]:
    """Project a configuration onto Lemma 4.1 labels (for the verifier)."""
    out = {}
    for v in net.nodes:
        st = config[v]
        out[v] = MalleableLabel(
            rid=st["rid"],
            par=None if st["par"] is NONE else st["par"],
            d=None if st["d"] is NONE else st["d"],
            s=None if st["s"] is NONE else st["s"],
        )
    return out


class MalleableTreeProtocol(Protocol):
    """Tree maintenance + the Section IV switch, as one guarded-rule layer."""

    name = "malleable-tree"

    def __init__(self) -> None:
        # per-network constant cache (see repro.core.sst): n_bound is an
        # incorruptible constant, re-reading it through attribute hops per
        # transition evaluation is measurable at engine call rates
        self._bound_net: Network | None = None
        self._bound = -1

    def register_spec(self, net: Network) -> RegisterSpec:
        return RegisterSpec([
            id_field("rid"),
            opt_id_field("par"),
            opt_counter_field("d", lambda n: n.n_bound),
            opt_counter_field("s", lambda n: n.n_bound),
            flag_field("mark"),
            opt_id_field("swt"),
        ])

    # ------------------------------------------------------------------
    # the transition function
    # ------------------------------------------------------------------

    def fast_step_slots(self, schema):
        """The transition rule, compiled to slot indices.

        Field names are resolved to row positions once, here.  In
        compositions (the guided constructions) the engine hands this
        rule a patched ``own`` row, so — like every compiled slot rule —
        it reads its own register exclusively through ``own`` and its
        neighbors through ``nbr_rows`` / ``config[u].row``.  The golden
        suite, the cross-checking test referee, and the small-n model
        checker pin it.
        """
        RID, PAR, D = schema.slot("rid"), schema.slot("par"), schema.slot("d")
        S, MARK, SWT = schema.slot("s"), schema.slot("mark"), schema.slot("swt")

        def self_root(me: int) -> dict:
            return {RID: me, PAR: NONE, D: 0, S: 1, MARK: False, SWT: NONE}

        def request_sane(net, config, me, own, nbr_rows) -> bool:
            swt = own[SWT]
            if swt not in net.neighbor_set(me):
                return False
            if own[PAR] is NONE or swt == own[PAR]:
                return False
            st = config[swt].row
            if st[PAR] == me:
                # re-parenting onto one's own child can never become
                # ready: the wave requires the target to keep a concrete
                # distance, but a child of the initiator prunes its
                # distance — a contradiction only corrupted/stale
                # requests can ask for
                return False
            if st[RID] != own[RID]:
                return False
            # nested initiators: the outer one yields.  A child's pending
            # switch marks this node (pruning its size) while this
            # node's pending switch prunes the child's distance, so
            # neither switch could ever become ready — a silent illegal
            # configuration the small-n model checker found.  Switches
            # are never nested in legal operation (a chain node raises
            # its request only once its former chain child has left).
            for _, kst in nbr_rows:
                if kst[PAR] == me and kst[SWT] is not NONE:
                    return False
            return True

        def switch_ready(config, me, own, nbr_rows, bound) -> bool:
            # Fig. 1(b): w and w' both (d, _), all children (_, s), self
            # intact
            wst, wpst = config[own[PAR]].row, config[own[SWT]].row
            if wst[S] is not NONE or wst[D] is NONE:
                return False
            if wpst[S] is not NONE or wpst[D] is NONE:
                return False
            if wpst[D] + 1 >= bound:
                return False
            if own[D] is NONE or own[S] is NONE:
                return False
            for _, st in nbr_rows:
                if st[PAR] == me:
                    if st[D] is not NONE or st[S] is NONE:
                        return False
            return True

        def intended(net, config, me, own, nbr_rows, bound) -> dict:
            rid, par = own[RID], own[PAR]
            d, s, swt = own[D], own[S], own[SWT]

            # ---- 1. construction / adoption (the SST layer) -------------
            if par is NONE:
                broken = rid != me
            else:
                broken = (par not in net.neighbor_set(me)
                          or config[par].row[RID] != rid
                          or rid >= me)
            # The best adoptable neighbor claim (rid, d, neighbor).
            # Election-layer soundness guard: a claim only counts when
            # its holder's labels could actually support a child right
            # now — both counters concrete, no pending switch, unmarked.
            # Without the guard a deterministic central daemon can starve
            # the election forever: a broken node adopts a claim whose
            # holder is mid-switch junk, the distance/size rules
            # immediately prune the adopted labels to the forbidden
            # (NONE, NONE) pair, the reset rule self-roots the node, and
            # the better-claim check re-adopts — a two-step oscillation
            # with no local fixpoint, so the node is always enabled and
            # the adversary (e.g. central-max-id) never has to schedule
            # anyone else.  With the guard the node settles (self-rooted)
            # until its neighborhood clears.
            best = None
            for u, st in nbr_rows:
                rid_u, d_u = st[RID], st[D]
                if not isinstance(rid_u, int) or rid_u >= me:
                    continue
                if d_u is NONE or not isinstance(d_u, int):
                    continue
                if d_u + 1 >= bound:
                    continue
                if st[S] is NONE or st[MARK] or st[SWT] is not NONE:
                    continue  # holder cannot support a child mid-switch
                cand = (rid_u, d_u, u)
                if best is None or cand < best:
                    best = cand
            # a visibly better root claim makes the node out of date
            if not broken and best is not None and best[0] < rid:
                broken = True
            if broken:
                if best is None or best[0] >= me:
                    return self_root(me)
                brid, bd, bpar = best
                # s = 1 is a concrete placeholder: the bottom-up size
                # fixpoint corrects it, and concreteness keeps the
                # (NONE, NONE) reset rule from misfiring while neighbors
                # still hold garbage requests
                return {RID: brid, PAR: bpar, D: bd + 1, S: 1,
                        MARK: False, SWT: NONE}
            # here: par is NONE with rid == me, or par is a neighbor
            # sharing rid

            # mark = I am w (child requests a switch) or w' (a neighbor
            # targets me) or the wave is climbing through me
            new_mark = False
            for _, st in nbr_rows:
                if st[PAR] == me and (st[SWT] is not NONE or st[MARK]):
                    new_mark = True
                    break
                if st[SWT] == me:
                    new_mark = True
                    break

            # ---- 2. switching -------------------------------------------
            new_par, new_d = par, d
            new_swt = swt
            if swt is not NONE:
                if not request_sane(net, config, me, own, nbr_rows):
                    new_swt = NONE
                elif switch_ready(config, me, own, nbr_rows, bound):
                    new_par = swt
                    new_d = config[swt].row[D] + 1
                    new_swt = NONE
                # else: hold everything, waiting for the waves

            # ---- 4. size rules ------------------------------------------
            new_s = s
            if new_mark:
                parent_pruned = (new_par is NONE
                                 or config[new_par].row[S] is NONE)
                if parent_pruned:
                    new_s = NONE
                # else: hold s until the prune wave descends to the parent
            else:
                total = 1
                for _, st in nbr_rows:
                    if st[PAR] == me:
                        cs = st[S]
                        if cs is NONE:
                            total = None  # hold (a wave below is collapsing)
                            break
                        total += cs
                if total is not None:
                    # overflow (> N) *prunes* the size instead of
                    # resetting the whole register: the election state
                    # (rid, par, d) may be perfectly valid while children
                    # claim junk sizes, and a full reset reseeds fresh
                    # d = 0 claims that let a deterministic central daemon
                    # cycle size inflation against the distance flush
                    # forever.  Sizes on genuine trees never exceed
                    # n <= N, so legal operation is unaffected; parent
                    # cycles are flushed by the distance chase, whose own
                    # overflow still resets.
                    new_s = NONE if total > bound else total

            # ---- 5. distance rules --------------------------------------
            if new_par is NONE:
                new_d = 0
            elif new_par == swt and new_swt is NONE and swt is not NONE:
                pass  # new_d already set by the switch
            else:
                pst = config[new_par].row
                if pst[SWT] is not NONE:
                    new_d = NONE      # pre-switch pruning below the initiator
                elif pst[D] is NONE:
                    new_d = NONE      # pruning propagates downward
                else:
                    want = pst[D] + 1
                    if want >= bound:
                        return self_root(me)
                    new_d = want

            # (NONE, NONE) labels are forbidden by the scheme and never
            # arise in legal operation (path prunes keep d, subtree
            # prunes keep s); a node reaching it — e.g. on a parent cycle
            # where neither counter can settle — resets, which is what
            # breaks such cycles
            if new_d is NONE and new_s is NONE:
                return self_root(me)
            # marked ∧ distance-pruned is equally forbidden: marks live
            # on the two root paths of a switch (which keep d and prune
            # s) while distance prunes live strictly below the initiator
            # (disjoint in every legal wave, since the new parent sits
            # outside the moving subtree).  Without this reset a parent
            # cycle can freeze forever: the members mutually sustain each
            # other's marks, the mark hold rule freezes their
            # (inconsistent) sizes, and the d = NONE prune wave never
            # bottoms out — a silent illegal configuration the small-n
            # model checker found.  Initiators holding a live switch
            # request are exempt (they hold everything by design).
            if new_mark and new_d is NONE and new_swt is NONE:
                return self_root(me)
            return {RID: rid, PAR: new_par, D: new_d, S: new_s,
                    MARK: new_mark, SWT: new_swt}

        def rule(net, config, me, own, nbr_rows, _self=self) -> dict | None:
            if net is not _self._bound_net:
                _self._bound_net = net
                _self._bound = net.n_bound
            new = intended(net, config, me, own, nbr_rows, _self._bound)
            delta = {k: v for k, v in new.items() if own[k] != v}
            return delta or None

        return rule

    # ------------------------------------------------------------------
    # legality (for tests)
    # ------------------------------------------------------------------

    def is_legal(self, net: Network, config) -> bool:
        """Legal: a spanning tree rooted at the min identity with the full
        (unpruned) redundant labeling, no marks, no pending switches."""
        try:
            tree = tree_of_config(net, config)
        except ValueError:
            return False
        if tree.root != net.min_id:
            return False
        sizes = tree.subtree_sizes()
        for v in net.nodes:
            st = config[v]
            if st["rid"] != net.min_id or st["mark"] or st["swt"] is not NONE:
                return False
            if st["d"] != tree.depth(v) or st["s"] != sizes[v]:
                return False
        return True

    def legal_configuration(self, net: Network, tree: RootedTree) -> dict:
        """The silent configuration encoding a given tree (for tests)."""
        sizes = tree.subtree_sizes()
        return {
            v: {
                "rid": tree.root, "par": tree.parent(v) or NONE,
                "d": tree.depth(v), "s": sizes[v],
                "mark": False, "swt": NONE,
            }
            for v in net.nodes
        }
