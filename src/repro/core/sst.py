"""Silent self-stabilizing spanning tree + leader election (guarded rules).

This is instruction 1 of Algorithms 1 and 3 — the paper delegates it to
Datta–Larmore–Vemula [25]; we implement the classical bounded-distance
construction that plays that role:

* every node maintains ``(rid, par, d)``: the claimed root identity, parent
  pointer, and distance to the root;
* a node adopts the smallest root claim reachable through a neighbor,
  breaking ties by distance, as long as the distance stays below the public
  bound ``N >= n`` (the *incorruptible* constant ``n_bound``);
* claims of identities with no live owner ("ghost roots", planted by
  transient faults) are flushed because their minimal supporting distance
  strictly increases every round until it hits ``N``.

The protocol is silent: in the unique stable configuration every node
carries ``rid = min identity``, ``d = `` its BFS distance to that node, and
a parent realizing it.  Registers are O(log n) bits.  Stabilization takes
O(N) rounds under every scheduler (tested under all daemons from arbitrary
configurations).

This protocol doubles as the classical *ad hoc* BFS baseline of the
related-work discussion (Dolev–Israeli–Moran style); the paper's
PLS-guided machinery in :mod:`repro.core.swap` / :mod:`repro.core.tasks`
maintains arbitrary trees instead, and only this layer's *rule structure*
is reused there for recovery after faults.
"""

from __future__ import annotations

from repro.graphs.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.registers import (
    NONE,
    RegisterSpec,
    counter_field,
    id_field,
    opt_id_field,
)

__all__ = ["SpanningTreeProtocol"]


class SpanningTreeProtocol(Protocol):
    """Min-identity leader election with a BFS spanning tree, silent."""

    name = "sst"
    #: every returned field differs from the register (the delta dicts
    #: below are built by comparing against ``own`` first), so the engine
    #: skips its no-op filter
    exact_deltas = True
    #: applying a proposal always lands the register on the rule's own
    #: fixpoint for the unchanged neighborhood: case A writes the stable
    #: root claim ``(me, NONE, 0)`` (best is still ``(me, 0)``), case B
    #: adopts the best claim with a witness parent that realizes it —
    #: re-evaluating either returns None until a neighbor changes
    settles_after_move = True

    def register_spec(self, net: Network) -> RegisterSpec:
        return RegisterSpec([
            id_field("rid"),
            opt_id_field("par"),
            counter_field("d", lambda n: n.n_bound),
        ])

    def fast_step_slots(self, schema):
        """The transition rule, compiled to slot indices
        (Protocol.fast_step_slots).

        The protocol's one scalar statement of delta: every evaluator
        runs it.  Field names resolve to row positions once, here.  The
        name-keyed test referee (``tests/referee_rules.py``) restates the
        rule over a NodeView, and the cross-checking grids compare the two
        at every scheduler selection.
        """
        RID, PAR, D = schema.slot("rid"), schema.slot("par"), schema.slot("d")
        cache: list = []  # (net, bound1, adjacency_sets) per-net constants

        def rule(net: Network, config, me: int, own, nbr_rows,
                 _c=cache) -> dict | None:
            best_rid, best_d = me, 0
            if not _c or _c[0] is not net:
                # adjacency_sets is the per-node neighbor-set table; the
                # rule only ever reads _c[2][me] — locality-equivalent to
                # net.neighbor_set(me), cached once to skip the property
                # hop on the parent-membership probe
                _c[:] = (net, net.n_bound - 1,
                         net.adjacency_sets)  # statics: ignore[L001]
            bound1 = _c[1]
            # all reachable claims: my own candidacy plus every neighbor
            # claim strictly better than my identity, with room left in
            # the distance bound (d_u + 1 < bound  <=>  d_u < bound - 1)
            for _, st in nbr_rows:
                rid_u, d_u = st[RID], st[D]
                # junk values are skipped: incomparable ones raise out of
                # the range test, comparable non-ints (floats, ...) fail
                # the isinstance gate.  Improvement test first: once a
                # good claim is adopted, most neighbors fail it in one
                # comparison.  best_rid is always <= me, so
                # rid_u < best_rid subsumes rid_u < me; the tie arm
                # re-checks it for the best_rid == me start.
                try:
                    if ((rid_u < best_rid
                         or (rid_u == best_rid and rid_u < me
                             and d_u + 1 < best_d))
                            and -1 < d_u < bound1
                            and isinstance(rid_u, int)
                            and isinstance(d_u, int)):
                        best_rid, best_d = rid_u, d_u + 1
                except TypeError:
                    continue
            # stability: the current claim is valid and as good as the
            # best candidate (any parent realizing it is acceptable: the
            # rule does not churn between equivalent parents)
            rid, d = own[RID], own[D]
            if rid == best_rid and d == best_d:
                par = own[PAR]
                if par is NONE:
                    if rid == me and d == 0:
                        return None
                else:
                    try:
                        in_nbrs = par in _c[2][me]
                    except TypeError:
                        in_nbrs = False
                    if in_nbrs:
                        pst = config[par].row
                        if (pst[RID] == rid and pst[D] == d - 1
                                and rid < me):
                            return None
            if best_rid == me:
                delta = {}
                if rid != me:
                    delta[RID] = me
                if own[PAR] is not NONE:
                    delta[PAR] = NONE
                if d != 0:
                    delta[D] = 0
                return delta or None
            # deterministic tie-break: the smallest neighbor offering the
            # claim (nbr_rows ascend by neighbor id, first match wins)
            par_d = best_d - 1
            for par, st in nbr_rows:
                if st[RID] == best_rid and st[D] == par_d:
                    break
            delta = {}
            if rid != best_rid:
                delta[RID] = best_rid
            if own[PAR] != par:
                delta[PAR] = par
            if d != best_d:
                delta[D] = best_d
            return delta or None

        return rule

    def interrupt_step(self, schema):
        """The super-stabilization interrupt section (Protocol.interrupt_step).

        The classical parent-vanished correction: a node whose parent
        pointer was severed by the event (the incident edge removed, or
        the parent crashed) resets to a self-root claim ``(me, NONE, 0)``
        instead of waiting a round to rediscover it — the one prioritized
        write Dolev–Herman's interrupt section allows.  Nodes that merely
        gained or lost a non-parent neighbor are untouched; the ordinary
        rule re-proposes them through the dirty set.
        """
        RID, PAR, D = schema.slot("rid"), schema.slot("par"), schema.slot("d")

        def rule(net: Network, config, me: int, own, event) -> dict | None:
            if own[PAR] not in event.lost_neighbors(me):
                return None
            delta = {}
            if own[RID] != me:
                delta[RID] = me
            delta[PAR] = NONE
            if own[D] != 0:
                delta[D] = 0
            return delta

        return rule

    def fast_write_impact(self, schema):
        """Which neighbors a write can re-enable (Protocol.fast_write_impact).

        The rule reads a neighbor ``v`` only through its candidate
        contribution — ``(rid, d+1)`` when ``rid < me`` and ``d`` is a
        bounded int, nothing otherwise — and through the stability /
        witness probes, which match only values that *are* valid
        candidate contributions.  So after a write to ``v``:

        * a ``par``-only write changes nothing any neighbor reads;
        * otherwise neighbor ``u`` is affected only if ``u``'s parent
          pointer names ``v`` (the stability probe reads the parent's
          ``(rid, d)`` unconditionally), or ``v``'s contribution
          *mattered*: ``u``'s rule output depends on the contribution
          multiset only through its lexicographic minimum, the smallest
          neighbor achieving it, and the parent probe — and ``u``'s
          best reachable claim is already known to the engine: it is
          ``u``'s row merged with its fresh proposal.  Packing claims
          into ``rid * n_bound + d`` keys (valid ``d`` lives in
          ``[0, n_bound)``):

          - new key *below* ``u``'s best: a new minimum — evaluate;
          - new key *equal* to the best (a tie): the canonical witness
            moves only if ``u`` is mid-adoption with a witness larger
            than ``v`` (a stable ``u``'s probe does not care who else
            offers its claim) — evaluate exactly then;
          - old key equal to the best: ``v`` was *a* provider of the
            minimum, which matters only if ``u`` was adopting *through*
            ``v`` — any other provider (for an enabled ``u``, its
            witness is the smallest) still offers the same minimum, so
            the output is unchanged — evaluate only when ``u``'s
            effective witness is ``v``;
          - anything else leaves every read ``u`` makes unchanged.

          Any junk that defeats the packing — on either side —
          includes ``u`` conservatively.
        """
        RID, PAR, D = schema.slots("rid", "par", "d")
        cache: list = []  # (net, K, bound1, adjacency) per-net constants

        def impact(net: Network, rows, v: int, delta, old, proposal,
                   _c=cache) -> list[int] | tuple:
            if RID not in delta and D not in delta:
                return ()  # par-only: invisible to every neighbor
            if not _c or _c[0] is not net:
                K = net.n_bound
                _c[:] = (net, K, K - 1, net.adjacency)
            K = _c[1]
            bound1 = _c[2]
            row = rows[v]
            r_new, d_new = row[RID], row[D]
            r_old = old[RID] if RID in old else r_new
            d_old = old[D] if D in old else d_new
            # candidate-gate validity, u-independent part (isinstance
            # mirrors the rule's accepted set, bools included; junk that
            # would raise out of the rule's range test fails here too)
            ok_old = (isinstance(r_old, int) and isinstance(d_old, int)
                      and -1 < d_old < bound1)
            k_old = r_old * K + d_old + 1 if ok_old else 0
            ok_new = (isinstance(r_new, int) and isinstance(d_new, int)
                      and -1 < d_new < bound1)
            k_new = r_new * K + d_new + 1 if ok_new else 0
            if not ok_old and not ok_new:
                # no valid contribution either side: only children see it
                return [u for u in _c[3][v] if rows[u][PAR] == v]
            if ok_new and (not ok_old or r_new < r_old):
                lim = r_new  # a contribution is visible to u iff u > rid
            else:
                lim = r_old
            out = []
            for u in _c[3][v]:
                row_u = rows[u]
                if row_u[PAR] == v:
                    out.append(u)
                    continue
                if u <= lim:
                    continue  # invisible to u before and after
                nw = ok_new and r_new < u
                od = ok_old and r_old < u
                p = proposal[u]
                if p is None:
                    rb, db = row_u[RID], row_u[D]
                else:
                    rb = p[RID] if RID in p else row_u[RID]
                    db = p[D] if D in p else row_u[D]
                if not (isinstance(rb, int) and isinstance(db, int)
                        and -1 < db < K):
                    out.append(u)  # unpackable best claim: evaluate
                    continue
                kb = rb * K + db
                if nw and k_new <= kb:
                    if k_new < kb:
                        out.append(u)
                    elif p is not None:
                        # tie: only a smaller-id witness re-decides an
                        # adoption in flight (junk witness: evaluate)
                        wpar = p[PAR] if PAR in p else row_u[PAR]
                        if not isinstance(wpar, int) or v < wpar:
                            out.append(u)
                elif od and k_old == kb and p is not None:
                    wpar = p[PAR] if PAR in p else row_u[PAR]
                    if wpar == v:
                        out.append(u)
            return out

        return impact

    def probe_potential(self, net: Network, config) -> int:
        """Packed-claim sum: the telemetry layer's convergence potential.

        Every node contributes its claim packed into the comparison key
        ``rid * n_bound + d`` (the write-impact filter's packing), so the
        sum strictly descends as nodes adopt smaller root claims and
        ghost-root distances are flushed upward then dropped.  Junk
        claims (non-int fields, values outside the packable range, as an
        adversary may plant) contribute the cap ``id_space * n_bound``:
        total on arbitrary configurations, and a fault can only raise
        the potential, never lower it.  Observer surface only
        (:data:`repro.runtime.protocol.OBS_ENTRYPOINTS`) — no rule reads
        this.
        """
        bound = net.n_bound
        cap = net.id_space * bound
        total = 0
        for v in net.nodes:
            st = config[v]
            rid, d = st["rid"], st["d"]
            if (type(rid) is int and type(d) is int
                    and 0 <= d < bound and 0 < rid * bound + d < cap):
                total += rid * bound + d
            else:
                total += cap
        return total

    def is_legal(self, net: Network, config) -> bool:
        """Legal: the min-identity BFS tree with exact distances."""
        root = net.min_id
        dist = net.bfs_distances(root)
        for v in net.nodes:
            st = config[v]
            if st["rid"] != root or st["d"] != dist[v]:
                return False
            if v == root:
                if st["par"] is not NONE:
                    return False
            else:
                p = st["par"]
                if p is NONE or p not in net.neighbors(v):
                    return False
                if dist[p] != dist[v] - 1:
                    return False
        return True
