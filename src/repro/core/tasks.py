"""Distributed PLS-guided task protocols (Theorems 3.1 / 7.1, end to end).

Every task composes three ingredients, all guarded rules in the state
model:

* the :class:`~repro.core.swap.MalleableTreeProtocol` layer below —
  construction, redundant (d, s) labels, and the Section IV switch;
* task labels maintained as self-correcting fixpoints on the stable tree
  (distances for BFS; NCA labels and Boruvka traces for MST);
* a root-coordinated improvement loop in the style of Algorithm 1: the
  root cycles through *phases*, broadcast down the tree and acknowledged
  back up (a propagation-of-information-with-feedback discipline):

  - ``WORK``: labels settle; every node aggregates its best improvement
    candidate (convergecast); when the root's subtree is fully acked and no
    candidate exists, the system is legal and **silent**;
  - ``SWAP``: the chosen pair is broadcast; the nodes of the chain execute
    their local switches in order (each fires when its former chain child
    has completed, Fig. 1a), and completion flows back up as
    acknowledgements.

Self-stabilization is hierarchical: the tree layer recovers structure; the
phase/ack/candidate fields are self-correcting on the stable tree; a
spurious phase or stale candidate can cause at most a bounded number of
valid-but-useless switches before genuine WORK data drives real progress.

Every layer here reads only its 1-hop neighborhood.  The MST/MDST
detector decision is consulted through the certificate-backed oracle of
:mod:`repro.certify.oracle` — register-carried subtree digests plus a
digest-keyed write-once memo — so the compositions read only the 1-hop
neighborhood, like every rule the incremental engine runs.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.certify.oracle import CertifiedOracle, DigestLayer
from repro.core.cycles import on_chain_segment
from repro.core.swap import MalleableTreeProtocol, tree_of_config
from repro.core.trees import RootedTree
from repro.graphs.network import Network
from repro.labeling.nca import NCALabel, label_is_ancestor
from repro.runtime.protocol import ComposedProtocol, Protocol, patched_config
from repro.runtime.registers import (
    NONE,
    RegisterSpec,
    custom_field,
    enum_field,
    flag_field,
)

__all__ = [
    "PhaseLayer",
    "SlotHooks",
    "GuidedBFS",
    "GuidedMST",
    "GuidedMDST",
    "NCALabelLayer",
    "guided_bfs_protocol",
    "guided_mst_protocol",
    "guided_mdst_protocol",
]

WORK = "WORK"
SWAP = "SWAP"


def _payload_field(name: str):
    """A broadcast/aggregation slot holding a small tuple or NONE.

    Bit accounting: payloads carry O(1) identities/weights plus up to two
    NCA labels; the analysis code measures NCA labels in their
    Gilbert–Moore wire format, the structural tuple here is the simulator
    representation.
    """

    def bits(net, value):
        if value is NONE:
            return 1
        return 1 + 6 * net.id_bits() + 2 * _label_bits(net, value)

    def corrupt(net, node, rng):
        if rng.random() < 0.5:
            return NONE
        arity = rng.choice((2, 3))
        return tuple(rng.randint(1, net.id_space) for _ in range(arity))

    return custom_field(name, lambda net, node: NONE, bits, corrupt)


def _label_bits(net, value) -> int:
    # conservative structural proxy; see EXPERIMENTS.md, "Substitutions"
    # (the label-bit proxy: the wire format is the measured Gilbert-Moore
    # encoding)
    return 2 * net.id_bits()


class SlotHooks(NamedTuple):
    """The task hooks of a :class:`PhaseLayer`, compiled to slot indices.

    Each reads the node's own register only through ``own`` and its
    neighbors through ``nbr_rows``:

    * ``candidate(me, own, nbr_rows)`` — this node's improvement
      candidate (a tuple ordered so that smaller = better), or ``NONE``;
      called only when the tree is sound.  ``None``: always ``NONE``;
    * ``settled(me, own, nbr_rows)`` — whether this node's task labels
      are locally consistent (asked in the WORK phase).  ``None``:
      always True;
    * ``role(net, config, me, own, nbr_rows, bc)`` — what the SWAP
      command ``bc`` asks of this node.  The compiled rule computes it
      once per evaluation and payload and hands it to the next two;
    * ``done(net, config, me, own, nbr_rows, bc, role)`` — whether this
      node's own part of the SWAP phase is complete (every other phase
      is done);
    * ``request(net, config, me, own, nbr_rows, bc, role)`` — the
      switch target the SWAP phase writes to the tree layer's ``swt``,
      or ``None`` (no write);
    * ``transition(net, config, me, own, nbr_rows, phase, cand)`` — the
      root's move once its subtree acked: ``(next phase, payload)`` or
      ``None`` (stay), side effects included.
    """

    candidate: Callable | None
    settled: Callable | None
    role: Callable
    done: Callable
    request: Callable
    transition: Callable


#: "role not computed yet" in the compiled rule (roles may be None)
_UNSET = object()


class PhaseLayer(Protocol):
    """Shared phase/ack machinery.  Subclasses define the task hooks.

    Every rule of this layer — phase copy-down, candidate aggregation,
    acknowledgements, and the root transition — reads only the 1-hop
    neighborhood.  The oracle-consulting subclasses keep that property by
    consulting their detector through the certificate-backed
    :class:`repro.certify.oracle.CertifiedOracle` (digest-keyed, write-once
    memo), so the whole family reads only the 1-hop neighborhood, like
    every rule the incremental engine runs.

    The layer's one rule is :meth:`fast_step_slots`: the machinery
    compiled to slot indices over the subclass's :meth:`slot_hooks`.
    The engine, the rescan and the model checker all run it.
    """

    name = "phase-layer"

    def register_spec(self, net: Network) -> RegisterSpec:
        return RegisterSpec([
            enum_field("ph", (WORK, SWAP), WORK),
            flag_field("ack"),
            _payload_field("cand"),
            _payload_field("bc"),
        ])

    def slot_hooks(self, schema) -> SlotHooks:
        """The task hooks compiled to slot indices (see :class:`SlotHooks`)."""
        raise NotImplementedError

    def fast_step_slots(self, schema):
        """The phase machinery compiled to slot indices over :meth:`slot_hooks`.

        In order: phase copy-down (the root keeps its own phase and
        broadcast; every other node copies its parent's), candidate
        aggregation (the node's own candidate when its tree labels are
        sound, else ``NONE``, folded with its children's), the
        acknowledgement (every child acked this phase, the tree is
        sound, the WORK labels are settled, the node's SWAP part is
        done, and its candidate is current), the root transition (with
        the hook's side effects), then the switch request.  The SWAP
        role is computed once per evaluation: ``done`` asks it of the
        register's own ``bc``, the switch request of the command in
        force, and the two are the same object unless the parent's
        broadcast or the root's transition just replaced it (copy-down
        hands the parent's payload object itself).  The parent row is
        found by scanning ``nbr_rows``, so a junk parent pointer that is
        not a neighbor leaves the node's own phase in force.
        """
        hooks = self.slot_hooks(schema)
        candidate, settled, role_of, done, request, transition = hooks
        PH, ACK, CAND, BC = schema.slots("ph", "ack", "cand", "bc")
        PAR, D, S = schema.slots("par", "d", "s")
        MARK, SWT = schema.slots("mark", "swt")

        def rule(net, config, me, own, nbr_rows) -> dict | None:
            par = own[PAR]
            own_bc = own[BC]
            children = [(u, st) for u, st in nbr_rows if st[PAR] == me]

            # ---- phase / broadcast copy-down ----------------------------
            ph, bc = own[PH], own_bc
            if par is not NONE:
                for u, st in nbr_rows:
                    if u == par:
                        ph, bc = st[PH], st[BC]
                        break

            # ---- candidate aggregation ----------------------------------
            sound = (own[D] is not NONE and own[S] is not NONE
                     and not own[MARK] and own[SWT] is NONE)
            best = NONE
            if sound and candidate is not None:
                best = candidate(me, own, nbr_rows)
            for _, kst in children:
                cc = kst[CAND]
                if cc is not NONE and (best is NONE or cc < best):
                    best = cc

            # ---- acknowledgement ----------------------------------------
            kids_ok = all(kst[ACK] and kst[PH] == ph for _, kst in children)
            role = _UNSET
            ok = sound and (ph != WORK or settled is None
                            or settled(me, own, nbr_rows))
            if ok and ph == SWAP:
                role = role_of(net, config, me, own, nbr_rows, own_bc)
                ok = done(net, config, me, own, nbr_rows, own_bc, role)
            ack = bool(kids_ok and ok and own[CAND] == best)

            # ---- root transition ----------------------------------------
            if par is NONE and ack:
                move = transition(net, config, me, own, nbr_rows, ph, best)
                if move is not None:
                    ph, bc = move
                    ack = False

            # ---- the SWAP phase's switch request ------------------------
            swt = None
            if ph == SWAP:
                if role is _UNSET or bc is not own_bc:
                    role = role_of(net, config, me, own, nbr_rows, bc)
                swt = request(net, config, me, own, nbr_rows, bc, role)

            delta = {}
            if own[PH] != ph:
                delta[PH] = ph
            if own_bc != bc:
                delta[BC] = bc
            if own[CAND] != best:
                delta[CAND] = best
            if own[ACK] != ack:
                delta[ACK] = ack
            if swt is not None and own[SWT] != swt:
                delta[SWT] = swt
            return delta or None

        return rule


class GuidedBFS(PhaseLayer):
    """The Section III task, end to end distributed.

    Candidate: a node ``u`` with a neighbor ``v`` such that
    ``d(v) + 1 < d(u)`` proposes the swap ``e = {u, v}, f = {u, p(u)}``
    (largest gain wins the aggregation).  The SWAP phase broadcasts
    ``(u, v)``; ``u`` performs a single local switch through the tree
    layer.
    """

    name = "guided-bfs"

    def slot_hooks(self, schema) -> SlotHooks:
        """The hooks compiled to slot indices; the SWAP role is the
        still-executable switch command addressed to this node."""
        RID, PAR, D, SWT = schema.slots("rid", "par", "d", "swt")

        def candidate(me, own, nbr_rows):
            # the best improving neighbor: d(v) + 1 < d(u)
            if own[PAR] is NONE:
                return NONE
            du = own[D]
            best = NONE
            for v, st in nbr_rows:
                dv = st[D]
                if dv is NONE or st[RID] != own[RID]:
                    continue
                if isinstance(dv, int) and dv + 1 < du:
                    cand = (-(du - dv - 1), me, v)
                    if best is NONE or cand < best:
                        best = cand
            return best

        def role(net, config, me, own, nbr_rows, bc):
            # The still-executable switch command (u, v) addressed to
            # this node, or None.  A SWAP broadcast that is not (or no
            # longer) a legal *improving* switch — target not a
            # neighbor, root identity disagreement, or d(v) + 1 < d(u)
            # failing — is treated as complete rather than pending: a
            # corrupted broadcast can command a switch the tree layer
            # will never accept (e.g. re-parenting onto the node's own
            # subtree), and waiting for it would wedge the phase
            # machinery in SWAP forever (a silent illegal island, or a
            # livelock of raise / sanity-clear cycles — both found by
            # the small-n model checker).  Acking instead lets the root
            # flush the phase and retry from genuine WORK data.
            if bc is NONE or not (isinstance(bc, tuple) and len(bc) == 2):
                return None
            u, v = bc
            if me != u or own[PAR] == v:
                return None
            try:
                if v not in net.neighbor_set(me):
                    return None
            except TypeError:
                return None
            st = config[v].row
            if st[RID] != own[RID]:
                return None
            du, dv = own[D], st[D]
            if not (isinstance(du, int) and isinstance(dv, int)
                    and dv + 1 < du):
                return None
            return u, v

        def done(net, config, me, own, nbr_rows, bc, cmd):
            # done = re-parented, not addressed, or command impossible
            return cmd is None

        def request(net, config, me, own, nbr_rows, bc, cmd):
            # the designated switcher raises the tree-layer request
            if cmd is None or own[SWT] is not NONE or own[PAR] is NONE:
                return None
            return cmd[1]

        def transition(net, config, me, own, nbr_rows, phase, cand):
            return _bfs_next_phase(phase, cand)

        return SlotHooks(candidate, None, role, done, request, transition)

    # ------------------------------------------------------------------

    def is_legal(self, net: Network, config) -> bool:
        try:
            tree = tree_of_config(net, config)
        except ValueError:
            return False
        dist = net.bfs_distances(tree.root)
        return all(tree.depth(v) == dist[v] for v in net.nodes)


def _bfs_next_phase(phase: str, cand):
    """GuidedBFS's root transition (a function of the phase and the
    aggregated candidate alone)."""
    if phase == WORK:
        # malformed candidates (corruption) are flushed by the
        # aggregation fixpoint within a step; never act on them
        if cand is NONE or not (isinstance(cand, tuple) and len(cand) == 3):
            return None  # legal: stay silent
        _, u, v = cand
        return SWAP, (u, v)
    return WORK, NONE  # SWAP acked -> back to work


def guided_bfs_protocol() -> ComposedProtocol:
    """The full silent self-stabilizing PLS-guided BFS construction."""
    return ComposedProtocol([MalleableTreeProtocol(), GuidedBFS()],
                            name="guided-bfs")


class NCALabelLayer(Protocol):
    """Distributed construction of the NCA labels (Section V) on the
    current tree: heavy-child pointers from the certified sizes, labels by
    parent derivation — self-correcting downward fixpoints, silent on a
    stable labeled tree.  Carries Lemma 5.1's certificate material."""

    name = "nca-labels"

    def register_spec(self, net: Network) -> RegisterSpec:
        def lam_bits(net_, value):
            if value is NONE:
                return 1
            # structural proxy (EXPERIMENTS.md, "Substitutions")
            return 1 + 2 * net_.id_bits()

        return RegisterSpec([
            custom_field("hv", lambda n, v: NONE,
                         lambda n, v: 1 + n.id_bits(),
                         lambda n, v, rng: NONE),
            custom_field("lam", lambda n, v: NONE, lam_bits,
                         lambda n, v, rng: NONE),
        ])

    def fast_step_slots(self, schema):
        """The label fixpoint compiled to slot indices.

        Composed above the tree layer, whose ``par``/``s`` fields it
        reads; ``ph`` is resolved when a phase layer is present.  Reads
        its own (possibly composition-patched) register only through
        ``own``; the parent row is located by scanning ``nbr_rows``, so a
        junk parent pointer that is not a neighbor derives no label
        (junk pointers compare unequal, they never hash).
        """
        HV, LAM, PAR, S = schema.slots("hv", "lam", "par", "s")
        PH = schema.index.get("ph")

        def rule(net, config, me, own, nbr_rows) -> dict | None:
            # freeze during SWAP phases: the chain roles of Fig. 1(a) are
            # derived from the *pre-swap* labels (Section V)
            if PH is not None and own[PH] == SWAP:
                return None
            # heavy child from the tree layer's certified sizes
            sizes = [(st[S], u) for u, st in nbr_rows if st[PAR] == me]
            hv = NONE
            if sizes and all(s is not NONE for s, _ in sizes):
                hv = _heavy_child(sizes)
            # label derivation from the parent
            lam = NONE
            par = own[PAR]
            if par is NONE:
                lam = ((me, 0),)
            else:
                pst = None
                for u, st in nbr_rows:
                    if u == par:
                        pst = st
                        break
                if pst is not None and pst[LAM] not in (None, NONE):
                    lam = _child_label(pst[LAM], pst[HV] == me, me)
            delta = {}
            if own[HV] != hv:
                delta[HV] = hv
            if lam is not NONE and own[LAM] != lam:
                delta[LAM] = lam
            return delta or None

        return rule

    @staticmethod
    def labels_ok(net: Network, config, tree: RootedTree) -> bool:
        from repro.labeling.nca import NCALabeling
        ref = NCALabeling(net, tree)
        return all(config[v]["lam"] is not NONE
                   and NCALabel(config[v]["lam"]) == ref.labels[v]
                   for v in net.nodes)


def _heavy_child(sizes) -> int:
    """The heavy child among ``(size, child)`` pairs (Section V): the
    largest subtree, ties to the smallest identity."""
    return min(sizes, key=lambda sc: (-sc[0], sc[1]))[1]


def _child_label(plam: tuple, heavy: bool, me: int) -> tuple:
    """The NCA label node ``me`` derives from its parent's label
    ``plam`` (Section V): the heavy child extends the parent's last
    heavy-path segment by one hop, a light child opens a segment of its
    own.  The one definition behind :class:`NCALabelLayer` and the
    guided tasks' settledness checks."""
    if heavy:
        apex, depth = plam[-1]
        return plam[:-1] + ((apex, depth + 1),)
    return plam + ((me, 0),)


def _lam_depth(segments) -> int:
    """Tree depth encoded by an NCA label (heavy hops + light edges)."""
    return sum(d for _, d in segments) + len(segments) - 1


def _nca_settled_slots(schema):
    """Whether the NCA layer's fixpoint is locally stable at a node:
    every child's size is concrete, and the node's heavy-child pointer
    and label are the ones :class:`NCALabelLayer` derives from them and
    from the parent's label.  ``settled(me, own, nbr_rows) -> bool``."""
    PAR, S, HV, LAM = schema.slots("par", "s", "hv", "lam")

    def settled(me, own, nbr_rows) -> bool:
        sizes = [(st[S], u) for u, st in nbr_rows if st[PAR] == me]
        if any(s is NONE for s, _ in sizes):
            return False
        hv = _heavy_child(sizes) if sizes else NONE
        if own[HV] != hv:
            return False
        par = own[PAR]
        if par is NONE:
            return own[LAM] == ((me, 0),)
        for u, pst in nbr_rows:
            if u == par:
                plam = pst[LAM]
                if plam in (None, NONE):
                    return False
                return own[LAM] == _child_label(plam, pst[HV] == me, me)
        return False

    return settled


class ChainSwapMixin:
    """Shared SWAP-phase behavior for tasks whose improvements are full
    ``T + e - f`` swaps executed as the Fig. 1(a) chain.

    Broadcast payload: ``(a, b, x, lam_a, lam_x)`` where ``e = {a, b}``
    (``a`` inside the detached subtree), and ``x`` is the child side of the
    removed edge ``f = {x, p(x)}``.  Every node derives its role from its
    own frozen NCA label: the chain is the tree path from ``a`` up to
    ``x``; each chain node re-parents onto its former chain child once that
    child has completed, ``a`` re-parents onto ``b`` first.
    """

    def chain_slot_hooks(self, schema):
        """``(role, done, request)`` of :class:`SlotHooks` for the chain
        swap.  The role is :func:`_chain_role_of`: ``(on_chain,
        target)``, derived from the node's frozen label."""
        RID, PAR, SWT = schema.slots("rid", "par", "swt")
        LAM, ACK, PH = schema.slots("lam", "ack", "ph")

        def role(net, config, me, own, nbr_rows, bc):
            return _chain_role_of(
                me, own[LAM], bc, ((z, st[LAM]) for z, st in nbr_rows))

        def target_row(net, config, me, target):
            # the target's row, or None when it is not a neighbor
            # (junk-tolerant membership)
            try:
                if target in net.neighbor_set(me):
                    return config[target].row
            except TypeError:
                pass
            return None

        def done(net, config, me, own, nbr_rows, bc, chain_role):
            on_chain, target = chain_role
            if not on_chain:
                return True
            if own[PAR] == target:
                return True
            # impossible commands are acked as complete (abort) instead
            # of waited on: the tree layer would never accept such a
            # request (see the tree rule's request sanity check), so
            # holding the ack would wedge the phase in SWAP forever on a
            # corrupted or stale broadcast
            tst = target_row(net, config, me, target)
            if tst is None or tst[RID] != own[RID]:
                return True
            if me == bc[0]:
                return not _endpoint_feasible_of(me, own[LAM], bc,
                                                 tst[PAR], tst[LAM])
            # the chain executes bottom-up: my turn comes once my former
            # chain child has re-parented.  If that child is still
            # attached to me but has *acknowledged* the SWAP phase, the
            # chain below me is dead — its endpoint refused an
            # infeasible command — and waiting would wedge the phase:
            # ack too, so the abort cascades up and the root can flush
            # and re-consult.
            return bool(tst[PAR] == me and tst[ACK] and tst[PH] == SWAP)

        def request(net, config, me, own, nbr_rows, bc, chain_role):
            on_chain, target = chain_role
            if not on_chain or target is None:
                return None
            if own[PAR] == target or own[SWT] is not NONE:
                return None
            # only raise requests the tree layer would accept (rid
            # agreement, see its request sanity check) — re-raising an
            # insane request fights the sanity rule forever on corrupted
            # broadcasts
            tst = target_row(net, config, me, target)
            if tst is None or tst[RID] != own[RID]:
                return None
            if me == bc[0]:
                # the subtree endpoint fires first — but never toward its
                # own (label-judged) descendant, see _endpoint_feasible_of
                if _endpoint_feasible_of(me, own[LAM], bc,
                                         tst[PAR], tst[LAM]):
                    return target
                return None
            # an inner chain node fires once its former child has left it
            if tst[PAR] != me and tst[SWT] is NONE:
                return target
            return None

        return role, done, request


def _chain_role_of(me: int, lam_raw, bc, nbr_lams):
    """(on_chain, target_id) for node ``me`` holding label ``lam_raw``
    under the SWAP payload ``bc``, or (False, None); ``nbr_lams`` yields
    ``(neighbor, label)`` pairs in ascending neighbor order."""
    if bc is NONE or not (isinstance(bc, tuple) and len(bc) == 5):
        return False, None
    a, b, x, lam_a_raw, lam_x_raw = bc
    if lam_raw in (None, NONE):
        return False, None
    try:
        lam = NCALabel(tuple(lam_raw))
        lam_a = NCALabel(tuple(lam_a_raw))
        lam_x = NCALabel(tuple(lam_x_raw))
    except (TypeError, ValueError):
        return False, None
    if me == a:
        return True, b
    # label comparisons may raise on corrupted labels (e.g. two labels
    # claiming different root apexes); any such junk simply means this
    # node is not on the chain
    try:
        if not on_chain_segment(lam, lam_a, lam_x):
            return False, None
    except (TypeError, ValueError):
        return False, None
    # my former chain child: the unique neighbor strictly below me on
    # the path toward a (frozen pre-swap labels)
    my_depth = _lam_depth(lam.segments)
    for z, zlam_raw in nbr_lams:
        if zlam_raw in (None, NONE):
            continue
        try:
            zlam = NCALabel(tuple(zlam_raw))
            if (label_is_ancestor(lam, zlam)
                    and label_is_ancestor(zlam, lam_a)
                    and _lam_depth(zlam.segments) == my_depth + 1):
                return True, z
        except (TypeError, ValueError):
            continue
    return False, None


def _endpoint_feasible_of(me: int, own_lam, bc, target_par,
                          lam_b_raw) -> bool:
    """Whether the chain endpoint ``me`` (label ``own_lam``) can still
    execute the commanded re-parent onto the target whose ``par`` and
    ``lam`` registers are given — i.e. whether it can still be the
    decided improvement.

    A genuine payload satisfies all three checks: the endpoint's own
    label still equals the payload's frozen ``lam_a`` (the decision was
    made about *this* node in *this* position — a mismatch means the
    payload is stale or was decided over junk labels), the target is not
    currently the endpoint's child (a direct register check no corrupted
    label can fool), and the target's label does not descend from
    ``lam_a`` (``b`` sits outside the detached subtree by construction).
    An infeasible command can never become ready; its raise prunes the
    target's distance and marks it, and the resulting raise/reset churn
    is a daemon cycle (three variants found by the small-n model
    checker).  Such commands are refused and acked as complete so the
    root flushes the phase, retires the decision, and re-consults on the
    current tree.
    """
    if target_par == me:
        return False  # the target is currently my own child
    if lam_b_raw in (None, NONE) or own_lam in (None, NONE):
        return False
    try:
        if tuple(own_lam) != tuple(bc[3]):
            return False  # stale: I am no longer the decided endpoint
        lam_a = NCALabel(tuple(bc[3]))
        lam_b = NCALabel(tuple(lam_b_raw))
        return not label_is_ancestor(lam_a, lam_b)
    except (TypeError, ValueError):
        return False


#: register fields the MST/MDST detectors read: the tree structure and
#: the NCA labels carried in the SWAP payloads.  The subtree digests of
#: the certificate-backed oracle cover exactly these, so a change to any
#: of them anywhere reaches the consulting root as a chain of ordinary
#: 1-hop register writes.
ORACLE_DIGEST_FIELDS = ("par", "lam")


class _OracleGuidedTask(ChainSwapMixin, PhaseLayer):
    """Base for the MST and MDST tasks.

    The *execution* is fully distributed (tree layer, NCA labels, chain
    switches, phase waves).  The *detector's decision* — which ``(e, f)``
    to swap next — is computed at the root.  The paper's companion report
    [14] implements this decision with convergecast/broadcast waves over
    the same certificates (Boruvka traces for MST, FR marks/witnesses for
    MDST); we reproduce those certificates and their verifiers in
    :mod:`repro.labeling.mst_pls` / :mod:`repro.labeling.fr_pls` and
    :mod:`repro.certify.schemes`, and keep the wave-level detector out of
    scope — see EXPERIMENTS.md, "Substitutions", substitution 6.

    The decision procedure is consulted through the certificate-backed
    oracle (:mod:`repro.certify.oracle`): the root keys every consult by
    the digest its 1-hop neighborhood dictates, and the digest chain
    carried in the ``ver`` registers guarantees a remote change of any
    oracle-relevant field reaches the root as ordinary neighborhood
    writes.  The root's rule is therefore a pure function of its 1-hop
    view (plus the write-once memo shared by every evaluation path), and
    the composition runs on the engine's ordinary 1-hop invalidation.

    Every evaluation of the compiled rule (:meth:`slot_hooks`) — the
    engine's proposals, the rescan, the model checker — consults,
    retires and latches through the same instance, so a retirement
    performed by one is seen by all.
    """

    #: the root's rule is 1-hop *given* the oracle memo, but the memo is
    #: per-instance state fed by a whole-configuration thunk
    #: (``tree_of_config``) — a shard-local subgraph cannot evaluate it,
    #: so the guided constructions decline sharded execution until the
    #: detector is register-resident
    shardable = False

    def __init__(self, digest: DigestLayer) -> None:
        self._digest = digest
        self._oracle = CertifiedOracle()
        #: ``(key, payload)`` of the outstanding SWAP decision; compared
        #: at flush time to retire a decision that moved nothing
        self._issued: tuple[int, object] | None = None

    def on_topology_event(self, old_net: Network, new_net: Network,
                          event: object) -> bool:
        """Flush the oracle across topology revisions (Protocol hook).

        Every memo entry was computed by ``_decide`` under the *old*
        network (the decision thunk closes over the consult-time
        topology), so a digest key that recurs after the event would
        replay a decision about edges that may no longer exist.  Drop
        the memo and the issued-decision latch wholesale and invalidate
        every cached proposal: the consulting root's enabledness is a
        function of the memo, not only of its 1-hop registers.
        """
        self._oracle = CertifiedOracle()
        self._issued = None
        return True

    # -- the oracle boundary -------------------------------------------

    def oracle_next_swap(self, net: Network, tree: RootedTree):
        """The next (e, f) improvement, or None when the tree is legal."""
        raise NotImplementedError

    def _decide(self, net: Network, config):
        """The detector: the next SWAP payload, or None (stay silent).

        Runs once per distinct subtree digest (see
        :class:`~repro.certify.oracle.CertifiedOracle`); reads the global
        configuration, which is sound exactly because the digest key
        certifies that content to the consulting root.
        """
        try:
            tree = tree_of_config(net, config)
        except ValueError:
            return None
        pair = self.oracle_next_swap(net, tree)
        if pair is None:
            return None  # legal: stay silent
        e, f = pair
        fx, fy = f
        x = fx if tree.parent(fx) == fy else fy
        detached = tree.subtree_nodes(x)
        a = e[0] if e[0] in detached else e[1]
        b = e[1] if a == e[0] else e[0]
        lam_a = config[a]["lam"]
        lam_x = config[x]["lam"]
        if lam_a in (None, NONE) or lam_x in (None, NONE):
            return None  # labels not ready; the next label write re-keys
        return (a, b, x, tuple(lam_a), tuple(lam_x))

    def _flush(self, key: int, bc) -> tuple[str, object]:
        """The SWAP flush back to WORK, shared by both evaluation paths.

        A completed SWAP that left the digest unchanged moved none of
        the registers the decision was about — the payload was stale or
        infeasible, and replaying it on the next recurrence of the same
        key would be a livelock, so it is retired (one shot per key).
        Only the decision that actually ran is retired: when the root's
        flushed ``bc`` is not the payload issued under ``key`` (a
        transient fault replaced it), the decision never executed, and
        retiring it would silence the root on an illegal tree.
        """
        if self._issued == (key, bc):
            self._oracle.retire(key)
        self._issued = None
        return WORK, NONE

    def slot_hooks(self, schema) -> SlotHooks:
        """The hooks compiled to slot indices: the NCA settledness check,
        the chain swap (:meth:`ChainSwapMixin.chain_slot_hooks`) and the
        root transition with its oracle side effects, in order: the
        digest key from the (patched) own row, then either the SWAP
        flush (:meth:`_flush`) with the register's own ``bc``, or a
        consult whose thunk hands :meth:`_decide` the configuration with
        the patched own row (:func:`patched_config`) and, on a decision,
        the issued-decision latch.

        No explicit digest check is needed in the settledness hook: the
        :class:`DigestLayer` runs earlier in the same composed atomic
        step, so any ack write is accompanied by a collateral refresh of
        the node's own ``ver`` — acked children always carry their
        current subtree digest, which is what keys the root's consult.
        Residual staleness windows (an ack bit written before a later
        remote change) are bounded by the one-shot retirement in
        :meth:`_flush`: a decision whose SWAP moved nothing is never
        replayed under the same key.
        """
        role, done, request = self.chain_slot_hooks(schema)
        expected = self._digest.slot_expected(schema)
        BC = schema.slot("bc")

        def transition(net, config, me, own, nbr_rows, phase, cand):
            key = expected(me, own, nbr_rows)
            if phase == SWAP:
                return self._flush(key, own[BC])
            payload = self._oracle.consult(key, lambda: self._decide(
                net, patched_config(schema, config, me, own)))
            if payload is None:
                return None
            # recording the issued decision is idempotent across
            # re-evaluations of this same guard state and does not
            # affect this evaluation's result, so cached proposals and
            # rescans stay in agreement
            self._issued = (key, payload)
            return SWAP, payload

        return SlotHooks(None, _nca_settled_slots(schema), role, done,
                         request, transition)


class GuidedMST(_OracleGuidedTask):
    """Algorithm 2 distributed (Corollary 6.1): red-rule swaps until the
    Boruvka-trace potential reaches zero (the unique MST)."""

    name = "guided-mst"

    def oracle_next_swap(self, net: Network, tree: RootedTree):
        from repro.core.mst import MSTPotential
        return MSTPotential().find_improvement(net, tree)

    def is_legal(self, net: Network, config) -> bool:
        from repro.baselines.sequential_mst import kruskal_mst
        try:
            tree = tree_of_config(net, config)
        except ValueError:
            return False
        return tree.edges() == kruskal_mst(net)


class GuidedMDST(_OracleGuidedTask):
    """Algorithm 4 distributed (Corollary 8.1): well-nested improvement
    sequences executed one chain swap at a time until the tree is an
    FR-tree (degree <= OPT + 1)."""

    name = "guided-mdst"

    def __init__(self, digest: DigestLayer) -> None:
        super().__init__(digest)
        self._plan: list = []
        self._plan_tree_edges: frozenset | None = None

    def oracle_next_swap(self, net: Network, tree: RootedTree):
        from repro.core.fr import (fr_marking, improvement_session,
                                   _direct_improvement)
        edges = frozenset(tree.edges())
        if self._plan and self._plan_tree_edges != edges:
            # a chain swap landed since the plan was made: if the head's
            # inserted edge materialized, advance to the plan's tail;
            # otherwise the plan derailed (faults) and is dropped
            e, _ = self._plan[0]
            if tuple(sorted(e)) in edges:
                self._plan.pop(0)
                self._plan_tree_edges = edges
            else:
                self._plan = []
        if self._plan and self._plan_tree_edges == edges:
            e, f = self._plan[0]
            return e, f
        self._plan = []
        marking = fr_marking(net, tree)
        if marking.is_fr:
            return None
        plan = None
        for w in marking.improvable:
            plan = improvement_session(net, tree, marking, w)
            if plan is not None:
                break
        if plan is None:
            plan = _direct_improvement(net, tree, marking.degree)
        if plan is None:
            return None
        seq, _ = plan
        self._plan = list(seq)
        self._plan_tree_edges = edges
        return self._plan[0]

    def is_legal(self, net: Network, config) -> bool:
        from repro.core.fr import is_fr_tree
        try:
            tree = tree_of_config(net, config)
        except ValueError:
            return False
        return is_fr_tree(net, tree)


def guided_mst_protocol() -> ComposedProtocol:
    """The full silent self-stabilizing MST construction (Corollary 6.1)."""
    digest = DigestLayer(fields=ORACLE_DIGEST_FIELDS)
    return ComposedProtocol(
        [MalleableTreeProtocol(), NCALabelLayer(), digest, GuidedMST(digest)],
        name="guided-mst")


def guided_mdst_protocol() -> ComposedProtocol:
    """The full silent self-stabilizing near-MDST construction
    (Corollary 8.1)."""
    digest = DigestLayer(fields=ORACLE_DIGEST_FIELDS)
    return ComposedProtocol(
        [MalleableTreeProtocol(), NCALabelLayer(), digest, GuidedMDST(digest)],
        name="guided-mdst")
