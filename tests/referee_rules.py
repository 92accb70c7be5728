"""The name-keyed test referee of every compiled rule.

The product states each protocol's rule once, as its compiled
``fast_step_slots`` rule.
This module keeps a second, independent statement of the same rules over
:class:`NodeView` — field names instead of slot indices, one hook per
method — so the cross-checking scheduler (``crosscheck.py``) and the
slot-rule grids can compare every engine proposal against it.

:func:`referee_step` is the entry point: it maps a protocol to a
name-keyed ``step(view)``.  ``sst`` (and its ``adhoc-bfs`` alias), the
digest layer, ``compact-mst`` and the tree and guided layers get their
referee body; every other protocol (``bgr-mdst``, test fixtures) is its
own referee through its ``step``.  The oracle operations of the guided
MST/MDST referee (the consult, the SWAP flush and the issued-decision
latch) delegate to the product instance, so the memo and latch are
shared with the engine's rule; its digest key comes from the digest
layer's referee.
"""

from __future__ import annotations

from repro.baselines.compact_mst import CompactNonSilentMST
from repro.certify.oracle import DigestLayer, node_digest
from repro.core.sst import SpanningTreeProtocol
from repro.core.swap import MalleableTreeProtocol
from repro.core.tasks import (
    SWAP,
    WORK,
    GuidedBFS,
    NCALabelLayer,
    _bfs_next_phase,
    _chain_role_of,
    _child_label,
    _endpoint_feasible_of,
    _heavy_child,
    _OracleGuidedTask,
)
from repro.runtime.protocol import ComposedProtocol, NodeView, _Overlay
from repro.runtime.registers import NONE

__all__ = ["referee_step", "referee_delta", "DigestLayerReferee",
           "SpanningTreeReferee"]


def referee_step(protocol):
    """The name-keyed ``step(view)`` of ``protocol`` (see module doc).

    A composition runs its layers in order; each layer sees this node's
    register patched with the updates of the layers below it, while
    neighbor registers are read as they currently are.
    """
    if isinstance(protocol, ComposedProtocol):
        steps = [referee_step(layer) for layer in protocol.layers]

        def composed(view: NodeView):
            updates: dict = {}
            for step in steps:
                layer_view = view
                if updates:
                    patched = dict(view.state)
                    patched.update(updates)
                    layer_view = NodeView(view.net, view.node, _Overlay(
                        view._config, view.node, patched))
                delta = step(layer_view)
                if delta:
                    updates.update(delta)
            return updates or None

        return composed
    for cls in type(protocol).__mro__:
        referee = _REFEREES.get(cls)
        if referee is not None:
            return referee(protocol).step
    return protocol.step


def referee_delta(step, net, config, node: int):
    """The fields ``step`` would actually change at ``node``, or None."""
    delta = step(NodeView(net, node, config))
    if not delta:
        return None
    own = config[node]
    delta = {k: val for k, val in delta.items() if own[k] != val}
    return delta or None


# ----------------------------------------------------------------------
# the spanning-tree layer (instruction 1 of Algorithms 1 and 3)
# ----------------------------------------------------------------------

class SpanningTreeReferee:
    """:class:`SpanningTreeProtocol` (and ``adhoc-bfs``) over a NodeView."""

    def __init__(self, product) -> None:
        self.product = product

    def step(self, view: NodeView) -> dict | None:
        net, config, me = view.net, view._config, view.node
        own = config[me]
        # all reachable claims: my own candidacy plus every neighbor claim
        # strictly better than my identity, with room left in the distance
        # bound (claims at distance >= N cannot be extended)
        best_rid, best_d = me, 0
        bound1 = net.n_bound - 1  # d_u + 1 < bound  <=>  d_u < bound - 1
        nbr_rows = view.nbr_states()
        for _, st in nbr_rows:
            rid_u, d_u = st["rid"], st["d"]
            # junk values are skipped: incomparable ones raise out of the
            # range test, comparable non-ints (floats, ...) are rejected by
            # the isinstance gate
            try:
                if (rid_u < me and -1 < d_u < bound1
                        and (rid_u < best_rid or (rid_u == best_rid
                                                  and d_u + 1 < best_d))
                        and isinstance(rid_u, int) and isinstance(d_u, int)):
                    best_rid, best_d = rid_u, d_u + 1
            except TypeError:
                continue
        # stability: the current claim is valid and as good as the best
        # available candidate (any valid parent achieving it is acceptable)
        rid, d = own["rid"], own["d"]
        if rid == best_rid and d == best_d:
            par = own["par"]
            if par is NONE:
                if rid == me and d == 0:
                    return None
            else:
                pst = view.nbr_or_none(par)
                if (pst is not None and pst["rid"] == rid
                        and pst["d"] == d - 1 and rid < me):
                    return None
        if best_rid == me:
            delta = {}
            if rid != me:
                delta["rid"] = me
            if own["par"] is not NONE:
                delta["par"] = NONE
            if d != 0:
                delta["d"] = 0
            return delta or None
        # deterministic tie-break: the smallest neighbor offering the claim
        par_d = best_d - 1
        for par, st in nbr_rows:
            if st["rid"] == best_rid and st["d"] == par_d:
                break
        delta = {}
        if rid != best_rid:
            delta["rid"] = best_rid
        if own["par"] != par:
            delta["par"] = par
        if d != best_d:
            delta["d"] = best_d
        return delta or None


# ----------------------------------------------------------------------
# the digest layer and the compact non-silent MST baseline
# ----------------------------------------------------------------------

class DigestLayerReferee:
    """:class:`DigestLayer` over a NodeView."""

    def __init__(self, product) -> None:
        self.product = product

    def expected(self, view: NodeView) -> int:
        """The digest the 1-hop neighborhood dictates for this node."""
        me = view.node
        own = view.state
        content = tuple(repr(own.get(f)) for f in self.product.fields)
        kids = tuple(sorted(
            (u, st.get("ver")) for u, st in view.nbr_states()
            if st.get("par") == me))
        return node_digest(me, content, kids)

    def step(self, view: NodeView) -> dict | None:
        want = self.expected(view)
        if view.state.get("ver") != want:
            return {"ver": want}
        return None


class CompactMSTReferee:
    """:class:`CompactNonSilentMST` over a NodeView."""

    def __init__(self, product) -> None:
        self.product = product

    def step(self, view: NodeView) -> dict | None:
        # perpetual verification wave: advance once every tree neighbor is
        # at my counter or one ahead (mod MOD) — an unsynchronized unison
        mod = self.product.MOD
        me = view.id
        my = view["wave"]
        tree_nbrs = [u for u in view.neighbors
                     if view.nbr(u)["par"] == me or view["par"] == u]
        behind = [u for u in tree_nbrs
                  if (view.nbr(u)["wave"] - my) % mod > mod // 2]
        if behind:
            return None  # wait for laggards
        return {"wave": (my + 1) % mod}


# ----------------------------------------------------------------------
# the tree layer (Section IV)
# ----------------------------------------------------------------------

class MalleableTreeReferee:
    """:class:`MalleableTreeProtocol` over a NodeView."""

    def __init__(self, product) -> None:
        self.product = product

    def step(self, view: NodeView) -> dict | None:
        own = view.state
        intended = self._intended(view.net, view._config, view.node,
                                  view.nbr_states())
        delta = {k: v for k, v in intended.items() if own[k] != v}
        return delta or None

    def _intended(self, net, config, me: int, rows) -> dict:
        bound = net.n_bound
        own = config[me]
        rid, par = own["rid"], own["par"]
        d, s, swt = own["d"], own["s"], own["swt"]

        # ---- 1. construction / adoption --------------------------------
        rebuilt = self._structural(net, config, me, rows, bound)
        if rebuilt is not None:
            return rebuilt

        new_mark = False
        for _, st in rows:
            if st["par"] == me and (st["swt"] is not NONE or st["mark"]):
                new_mark = True
                break
            if st["swt"] == me:
                new_mark = True
                break

        # ---- 2. switching ----------------------------------------------
        new_par, new_d = par, d
        new_swt = swt
        if swt is not NONE:
            if not self._switch_request_sane(net, config, me, own, rows):
                new_swt = NONE
            elif self._switch_ready(config, me, own, rows, bound):
                new_par = swt
                new_d = config[swt]["d"] + 1
                new_swt = NONE

        # ---- 4. size rules ---------------------------------------------
        new_s = s
        if new_mark:
            if new_par is NONE or config[new_par]["s"] is NONE:
                new_s = NONE
        else:
            total = 1
            for _, st in rows:
                if st["par"] == me:
                    cs = st["s"]
                    if cs is NONE:
                        total = None
                        break
                    total += cs
            if total is not None:
                new_s = NONE if total > bound else total

        # ---- 5. distance rules ------------------------------------------
        if new_par is NONE:
            new_d = 0
        elif new_par == swt and new_swt is NONE and swt is not NONE:
            pass
        else:
            pst = config[new_par]
            if pst["swt"] is not NONE:
                new_d = NONE
            elif pst["d"] is NONE:
                new_d = NONE
            else:
                want = pst["d"] + 1
                if want >= bound:
                    return self._self_root(me)
                new_d = want

        if new_d is NONE and new_s is NONE:
            return self._self_root(me)
        if new_mark and new_d is NONE and new_swt is NONE:
            return self._self_root(me)
        return {"rid": rid, "par": new_par, "d": new_d, "s": new_s,
                "mark": new_mark, "swt": new_swt}

    def _structural(self, net, config, me: int, rows, bound: int):
        own = config[me]
        rid, par = own["rid"], own["par"]
        if par is NONE:
            broken = rid != me
        else:
            broken = (par not in net.neighbor_set(me)
                      or config[par]["rid"] != rid
                      or rid >= me)
        best = self._best_claim(me, rows, bound)
        if not broken and best is not None and best[0] < rid:
            broken = True
        if not broken:
            return None
        if best is None or best[0] >= me:
            return self._self_root(me)
        brid, bd, bpar = best
        return {"rid": brid, "par": bpar, "d": bd + 1, "s": 1,
                "mark": False, "swt": NONE}

    @staticmethod
    def _best_claim(me: int, rows, bound: int):
        best = None
        for u, st in rows:
            rid_u, d_u = st["rid"], st["d"]
            if not isinstance(rid_u, int) or rid_u >= me:
                continue
            if d_u is NONE or not isinstance(d_u, int):
                continue
            if d_u + 1 >= bound:
                continue
            if st["s"] is NONE or st["mark"] or st["swt"] is not NONE:
                continue
            cand = (rid_u, d_u, u)
            if best is None or cand < best:
                best = cand
        return best

    @staticmethod
    def _self_root(me: int) -> dict:
        return {"rid": me, "par": NONE, "d": 0, "s": 1,
                "mark": False, "swt": NONE}

    @staticmethod
    def _switch_request_sane(net, config, me: int, own, rows) -> bool:
        swt = own["swt"]
        if swt not in net.neighbor_set(me):
            return False
        if own["par"] is NONE or swt == own["par"]:
            return False
        st = config[swt]
        if st["par"] == me:
            return False
        if st["rid"] != own["rid"]:
            return False
        # nested initiators: the outer one yields
        return not any(kst["par"] == me and kst["swt"] is not NONE
                       for _, kst in rows)

    @staticmethod
    def _switch_ready(config, me: int, own, rows, bound: int) -> bool:
        wst, wpst = config[own["par"]], config[own["swt"]]
        if wst["s"] is not NONE or wst["d"] is NONE:
            return False
        if wpst["s"] is not NONE or wpst["d"] is NONE:
            return False
        if wpst["d"] + 1 >= bound:
            return False
        if own["d"] is NONE or own["s"] is NONE:
            return False
        for _, st in rows:
            if st["par"] == me:
                if st["d"] is not NONE or st["s"] is NONE:
                    return False
        return True


# ----------------------------------------------------------------------
# the phase layer and its tasks
# ----------------------------------------------------------------------

class PhaseLayerReferee:
    """:class:`PhaseLayer`'s phase/ack machinery over a NodeView; the
    subclasses supply the task hooks."""

    def __init__(self, product) -> None:
        self.product = product

    # task hooks (defaults)

    def own_candidate(self, view: NodeView):
        return NONE

    def extra_rules(self, view: NodeView, intended: dict) -> None:
        pass

    def next_phase(self, view: NodeView, phase: str, cand):
        raise NotImplementedError

    def phase_done(self, view: NodeView, phase: str) -> bool:
        return True

    def labels_settled(self, view: NodeView) -> bool:
        return True

    # tree-layer helpers

    @staticmethod
    def tree_sound(view: NodeView) -> bool:
        return (view["d"] is not NONE and view["s"] is not NONE
                and not view["mark"] and view["swt"] is NONE)

    @staticmethod
    def children_of(view: NodeView) -> list[int]:
        me = view.id
        return [u for u in view.neighbors if view.nbr(u)["par"] == me]

    @staticmethod
    def is_root(view: NodeView) -> bool:
        return view["par"] is NONE

    def step(self, view: NodeView) -> dict | None:
        cur = view.state
        intended = dict()
        children = self.children_of(view)

        # ---- phase / broadcast copy-down --------------------------------
        if self.is_root(view):
            ph, bc = cur["ph"], cur["bc"]
        else:
            pst = view.nbr(view["par"]) if view["par"] in view.neighbors else None
            if pst is not None and "ph" in pst:
                ph, bc = pst["ph"], pst["bc"]
            else:
                ph, bc = cur["ph"], cur["bc"]
        intended["ph"] = ph
        intended["bc"] = bc

        # ---- candidate aggregation --------------------------------------
        own = self.own_candidate(view) if self.tree_sound(view) else NONE
        best = own
        for c in children:
            cc = view.nbr(c)["cand"]
            if cc is not NONE and (best is NONE or cc < best):
                best = cc
        intended["cand"] = best

        # ---- acknowledgement --------------------------------------------
        kids_ok = all(
            view.nbr(c)["ack"] and view.nbr(c)["ph"] == ph for c in children
        )
        settled = (self.tree_sound(view)
                   and (ph != WORK or self.labels_settled(view))
                   and self.phase_done(view, ph)
                   and cur["cand"] == best)
        intended["ack"] = bool(kids_ok and settled)

        # ---- root transition ---------------------------------------------
        if self.is_root(view) and intended["ack"]:
            move = self.next_phase(view, ph, best)
            if move is not None:
                nxt, payload = move
                intended["ph"] = nxt
                intended["bc"] = payload
                intended["ack"] = False

        # ---- task-specific extras -----------------------------------------
        self.extra_rules(view, intended)

        delta = {k: v for k, v in intended.items() if cur.get(k) != v}
        return delta or None


class GuidedBFSReferee(PhaseLayerReferee):
    """:class:`GuidedBFS`'s hooks over a NodeView."""

    def own_candidate(self, view: NodeView):
        if self.is_root(view):
            return NONE
        du = view["d"]
        best = NONE
        for v in view.neighbors:
            st = view.nbr(v)
            dv = st["d"]
            if dv is NONE or st["rid"] != view["rid"]:
                continue
            if isinstance(dv, int) and dv + 1 < du:
                cand = (-(du - dv - 1), view.id, v)
                if best is NONE or cand < best:
                    best = cand
        return best

    def next_phase(self, view: NodeView, phase: str, cand):
        return _bfs_next_phase(phase, cand)

    @staticmethod
    def _commanded_switch(view: NodeView, bc):
        if bc is NONE or not (isinstance(bc, tuple) and len(bc) == 2):
            return None
        u, v = bc
        if view.id != u or view["par"] == v:
            return None
        st = view.nbr_or_none(v)
        if st is None or st["rid"] != view["rid"]:
            return None
        du, dv = view["d"], st["d"]
        if not (isinstance(du, int) and isinstance(dv, int) and dv + 1 < du):
            return None
        return u, v

    def phase_done(self, view: NodeView, phase: str) -> bool:
        if phase != SWAP:
            return True
        return self._commanded_switch(view, view["bc"]) is None

    def extra_rules(self, view: NodeView, intended: dict) -> None:
        if intended.get("ph") != SWAP:
            return
        cmd = self._commanded_switch(view, intended.get("bc", view["bc"]))
        if cmd is None or view["swt"] is not NONE or view["par"] is NONE:
            return
        intended["swt"] = cmd[1]


def _nca_settled_at(view: NodeView) -> bool:
    """Whether the NCA layer's fixpoint is locally stable."""
    me = view.id
    children = [u for u in view.neighbors if view.nbr(u)["par"] == me]
    sizes = [(view.nbr(c)["s"], c) for c in children]
    if any(s is NONE for s, _ in sizes):
        return False
    hv = _heavy_child(sizes) if children else NONE
    if view["hv"] != hv:
        return False
    if view["par"] is NONE:
        return view["lam"] == ((me, 0),)
    pst = view.nbr_or_none(view["par"])
    if pst is None:
        return False
    plam = pst.get("lam")
    if plam in (None, NONE):
        return False
    return view["lam"] == _child_label(plam, pst.get("hv") == me, me)


class OracleTaskReferee(PhaseLayerReferee):
    """The guided MST/MDST hooks over a NodeView: the Fig. 1(a) chain
    swap, the NCA settledness check, and the root transition through the
    product's oracle."""

    @staticmethod
    def _chain_role(view: NodeView, bc):
        return _chain_role_of(
            view.id, view["lam"], bc,
            ((z, view.nbr(z).get("lam")) for z in view.neighbors))

    @staticmethod
    def _endpoint_feasible(view: NodeView, bc) -> bool:
        st = view.nbr_or_none(bc[1])
        if st is None:
            return False
        return _endpoint_feasible_of(view.id, view["lam"], bc,
                                     st.get("par"), st.get("lam"))

    def labels_settled(self, view: NodeView) -> bool:
        return _nca_settled_at(view)

    def phase_done(self, view: NodeView, phase: str) -> bool:
        if phase != SWAP:
            return True
        bc = view["bc"]
        on_chain, target = self._chain_role(view, bc)
        if not on_chain:
            return True
        if view["par"] == target:
            return True
        st = view.nbr_or_none(target)
        if st is None or st["rid"] != view["rid"]:
            return True
        if view.id == bc[0] and not self._endpoint_feasible(view, bc):
            return True
        if (view.id != bc[0] and st["par"] == view.id
                and st.get("ack") and st.get("ph") == SWAP):
            return True
        return False

    def extra_rules(self, view: NodeView, intended: dict) -> None:
        if intended.get("ph") != SWAP:
            return
        bc = intended.get("bc", view["bc"])
        on_chain, target = self._chain_role(view, bc)
        if not on_chain or target is None:
            return
        if view["par"] == target or view["swt"] is not NONE:
            return
        if target not in view.neighbors:
            return
        tst = view.nbr(target)
        if tst["rid"] != view["rid"]:
            return
        if view.id == bc[0]:
            if self._endpoint_feasible(view, bc):
                intended["swt"] = target
        else:
            if tst["par"] != view.id and tst["swt"] is NONE:
                intended["swt"] = target

    def next_phase(self, view: NodeView, phase: str, cand):
        product = self.product
        key = DigestLayerReferee(product._digest).expected(view)
        if phase == SWAP:
            return product._flush(key, view["bc"])
        net = view.net
        config = view._config
        payload = product._oracle.consult(
            key, lambda: product._decide(net, config))
        if payload is None:
            return None
        product._issued = (key, payload)
        return SWAP, payload


class NCALabelReferee:
    """:class:`NCALabelLayer` over a NodeView."""

    def __init__(self, product) -> None:
        self.product = product

    def step(self, view: NodeView) -> dict | None:
        cur = view.state
        me = view.id
        if cur.get("ph") == SWAP:
            return None
        children = [u for u in view.neighbors if view.nbr(u)["par"] == me]
        hv = NONE
        sizes = [(view.nbr(c)["s"], c) for c in children]
        if children and all(s is not NONE for s, _ in sizes):
            hv = _heavy_child(sizes)
        lam = NONE
        if view["par"] is NONE:
            lam = ((me, 0),)
        else:
            pst = view.nbr(view["par"]) if view["par"] in view.neighbors else None
            if pst is not None and pst.get("lam") not in (None, NONE):
                lam = _child_label(pst["lam"], pst.get("hv") == me, me)
        delta = {}
        if cur["hv"] != hv:
            delta["hv"] = hv
        if lam is not NONE and cur["lam"] != lam:
            delta["lam"] = lam
        return delta or None


_REFEREES = {
    SpanningTreeProtocol: SpanningTreeReferee,
    DigestLayer: DigestLayerReferee,
    CompactNonSilentMST: CompactMSTReferee,
    MalleableTreeProtocol: MalleableTreeReferee,
    NCALabelLayer: NCALabelReferee,
    GuidedBFS: GuidedBFSReferee,
    _OracleGuidedTask: OracleTaskReferee,
}
