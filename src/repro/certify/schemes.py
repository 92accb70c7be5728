"""Per-task local certifiers: assigners + verifiers over register contents.

A :class:`LocalCertifier` makes a task's legitimacy *locally checkable*
in exactly the paper's sense (Section II-C): a **certificate assigner**
decorates a legitimate configuration with whatever certificate fields the
task needs (the prover), and a pure **local verifier**

    ``verify_node(net, node, state, nbr_states) -> bool``

reads only the node's own register contents, its graph neighbors'
register contents, and the incorruptible constants.  Locality is
mechanical, not a promise: ``nbr_states`` contains the 1-hop neighborhood
and nothing else, so a verifier cannot cheat.

Soundness/completeness contract per task (checked by the tests and the
``python -m repro certify`` CLI):

* the assigner's decoration of a legitimate configuration makes every
  node accept;
* a configuration every node accepts is legitimate — silent *and* legal
  for the task (the verifier embeds the silence conditions of every
  protocol layer, so acceptance certifies the fixpoint, not just the
  tree shape);
* every single-register corruption of a certified legitimate
  configuration is rejected by at least one node — or lands on another
  certified-legal configuration (e.g. re-parenting an SST node onto an
  equally close alternative parent), which the corruption tests verify
  explicitly.

The five tasks map to the registry keys ``sst``, ``guided-bfs``,
``nca-build``, ``guided-mst`` and ``guided-mdst``.  SST/BFS/NCA need no
extra certificate fields — their runtime registers already carry the
distance/size/NCA certificates.  MST adds the Boruvka trace of Section VI
(O(log^2 n) bits, :mod:`repro.labeling.mst_pls`); MDST adds the FR
certificate of Lemma 8.1 (O(log n) bits, :mod:`repro.labeling.fr_pls`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro._bits import (
    bits_for_counter,
    bits_for_id,
    bits_for_option,
    bits_for_weight,
)
from repro.certify.oracle import config_digest, node_digest
from repro.core import bfs_tree, tree_from_edges
from repro.core.swap import MalleableTreeProtocol, tree_of_config
from repro.core.tasks import (
    ORACLE_DIGEST_FIELDS,
    WORK,
    guided_bfs_protocol,
    guided_mdst_protocol,
    guided_mst_protocol,
)
from repro.graphs.network import Network
from repro.labeling.fr_pls import FRCertificate, FRTreePLS
from repro.labeling.mst_pls import BoruvkaLevel, MSTCertificate, MSTPLS, boruvka_trace
from repro.labeling.nca import NCALabeling
from repro.runtime.protocol import Protocol
from repro.runtime.registers import NONE, Field, RegisterSpec, custom_field

__all__ = [
    "LocalCertifier",
    "VerificationOutcome",
    "CERTIFIERS",
    "get_certifier",
    "single_register_corruptions",
]

Config = dict[int, dict[str, object]]
NbrStates = Sequence[tuple[int, dict[str, object]]]


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of running the local verifier at every node."""

    accepted: bool
    rejecting: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.accepted


# ----------------------------------------------------------------------
# shared local predicates (each reads state + nbr_states only)
# ----------------------------------------------------------------------


def _tree_full_ok(net: Network, node: int, state, nbrs: NbrStates) -> bool:
    """Full (unpruned) malleable labels on a min-rooted spanning tree,
    locally: the distance *and* size schemes of Section IV, plus quiet
    switch machinery.  Acceptance at every node certifies tree-ness,
    exact depths/sizes, and the min-identity root."""
    rid, par = state["rid"], state["par"]
    d, s = state["d"], state["s"]
    if state["mark"] or state["swt"] is not NONE:
        return False
    if not isinstance(d, int) or not 0 <= d < net.n_bound:
        return False
    if not isinstance(s, int) or not 1 <= s <= net.n_bound:
        return False
    if not isinstance(rid, int) or rid > node:
        return False  # the certified root identity is the global minimum
    total = 1
    for _, st in nbrs:
        if st["rid"] != rid:
            return False
        if st["par"] == node:
            cs = st["s"]
            if not isinstance(cs, int):
                return False
            total += cs
    if s != total:
        return False
    if par is NONE:
        return rid == node and d == 0
    if rid == node:
        return False  # the identity owner must be the root
    for u, st in nbrs:
        if u == par:
            return isinstance(st["d"], int) and d == st["d"] + 1
    return False  # parent is not a neighbor


def _phase_silent_ok(node: int, state, nbrs: NbrStates) -> bool:
    """The phase layer's silent fixpoint: everyone acked in WORK with no
    candidate, broadcasts agreeing along tree edges."""
    if state["ph"] != WORK or not state["ack"] or state["cand"] is not NONE:
        return False
    par = state["par"]
    if par is NONE:
        return True
    for u, st in nbrs:
        if u == par:
            return state["bc"] == st["bc"]
    return False


def _bfs_optimal_ok(state, nbrs: NbrStates) -> bool:
    """No neighbor offers a strictly shorter path (Section III)."""
    d = state["d"]
    for _, st in nbrs:
        dv = st["d"]
        if isinstance(dv, int) and dv + 1 < d:
            return False
    return True


def _nca_ok(node: int, state, nbrs: NbrStates) -> bool:
    """Heavy-child pointer + NCA label derivation (Lemma 5.1), locally."""
    sizes = [(st["s"], u) for u, st in nbrs if st["par"] == node]
    if any(not isinstance(s_, int) for s_, _ in sizes):
        return False
    hv = min(sizes, key=lambda sc: (-sc[0], sc[1]))[1] if sizes else NONE
    if state["hv"] != hv:
        return False
    lam = state["lam"]
    if not isinstance(lam, tuple) or not lam:
        return False
    par = state["par"]
    if par is NONE:
        return lam == ((node, 0),)
    pst = None
    for u, st in nbrs:
        if u == par:
            pst = st
            break
    if pst is None:
        return False
    plam = pst.get("lam")
    if not isinstance(plam, tuple) or not plam:
        return False
    try:
        if pst.get("hv") == node:
            apex, depth = plam[-1]
            want = plam[:-1] + ((apex, depth + 1),)
        else:
            want = plam + ((node, 0),)
    except (TypeError, ValueError):
        return False
    return lam == want


def _ver_ok(node: int, state, nbrs: NbrStates,
            fields: tuple[str, ...]) -> bool:
    """The subtree digest of the certificate-backed oracle layer."""
    content = tuple(repr(state.get(f)) for f in fields)
    kids = tuple(sorted((u, st.get("ver")) for u, st in nbrs
                        if st.get("par") == node))
    return state.get("ver") == node_digest(node, content, kids)


# ----------------------------------------------------------------------
# the certifier interface
# ----------------------------------------------------------------------


class LocalCertifier(ABC):
    """One task's assigner + local verifier (see module docstring)."""

    #: registry key of the protocol this certifier covers
    task: str = ""
    #: the paper's per-register space bound for the certified task
    space_bound: str = "O(log n)"

    @abstractmethod
    def protocol(self) -> Protocol:
        """A fresh instance of the verifier-equipped protocol."""

    def cert_fields(self, net: Network) -> list[Field]:
        """Extra certificate fields beyond the runtime registers."""
        return []

    def register_spec(self, net: Network) -> RegisterSpec:
        """Runtime registers + certificate fields (the certified layout)."""
        spec = self.protocol().register_spec(net)
        extra = self.cert_fields(net)
        return spec.merged(RegisterSpec(extra)) if extra else spec

    @abstractmethod
    def build_network(self, n: int, seed: int = 1) -> Network:
        """A task-appropriate instance for tables and smoke checks."""

    @abstractmethod
    def legitimate(self, net: Network) -> Config:
        """A canonical certified legitimate configuration (prover side)."""

    def certify(self, net: Network, config: Config) -> Config:
        """Decorate a claimed-legitimate configuration with certificates.

        Identity for the register-complete tasks; MST/MDST compute their
        proof labels from the configuration's tree.  Raises ValueError
        when the configuration cannot be decorated (e.g. not a tree).
        """
        return {v: dict(state) for v, state in config.items()}

    @abstractmethod
    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        """The pure local verifier (1-hop reads only)."""

    def verify(self, net: Network, config: Config,
               nodes: Iterable[int] | None = None) -> VerificationOutcome:
        """Run the local verifier at every node of a configuration, or
        only at ``nodes`` (in their order): each verdict reads one closed
        neighbourhood, so a subset's verdicts equal the full pass's."""
        rejecting = []
        for v in net.nodes if nodes is None else nodes:
            nbrs = [(u, config[u]) for u in net.neighbors(v)]
            try:
                ok = self.verify_node(net, v, config[v], nbrs)
            except (KeyError, TypeError, ValueError, IndexError):
                ok = False  # junk register contents can only reject
            if not ok:
                rejecting.append(v)
        return VerificationOutcome(accepted=not rejecting,
                                   rejecting=tuple(rejecting))

    def is_legal(self, net: Network, config: Config) -> bool:
        """The task's global legality predicate (ground truth for tests)."""
        proto = self.protocol()
        try:
            return bool(proto.is_legal(net, config))
        except (NotImplementedError, ValueError):
            return False

    # -- shared construction helpers -----------------------------------

    @staticmethod
    def _seeded_tree_config(net: Network, proto: Protocol, tree) -> Config:
        base = MalleableTreeProtocol().legal_configuration(net, tree)
        cfg = proto.initial_configuration(net)
        for v in net.nodes:
            cfg[v].update(base[v])
        return cfg

    @staticmethod
    def _settle_phase(cfg: Config) -> None:
        for state in cfg.values():
            state["ph"] = WORK
            state["ack"] = True
            state["cand"] = NONE
            state["bc"] = NONE

    @staticmethod
    def _settle_nca(net: Network, cfg: Config, tree) -> None:
        scheme = NCALabeling(net, tree)
        for v in net.nodes:
            heavy = scheme.heavy[v]
            cfg[v]["hv"] = NONE if heavy is None else heavy
            cfg[v]["lam"] = tuple(scheme.labels[v].segments)

    @staticmethod
    def _settle_ver(net: Network, cfg: Config) -> None:
        for v, ver in config_digest(net, cfg, ORACLE_DIGEST_FIELDS).items():
            cfg[v]["ver"] = ver


# ----------------------------------------------------------------------
# SST — the ad hoc spanning-tree / leader-election baseline
# ----------------------------------------------------------------------


class SSTCertifier(LocalCertifier):
    """Distance-based certification of the min-id BFS tree.

    The registers (rid, par, d) *are* the classic (ID, d) proof labels:
    rid agreement + owner check certify a unique existing root, bounded
    decreasing distances certify tree-ness, ``rid <= id`` at every node
    certifies minimality, and the BFS slack check certifies exact
    distances — so zero extra certificate bits are needed.
    """

    task = "sst"
    space_bound = "O(log n)"

    def protocol(self) -> Protocol:
        from repro.core.sst import SpanningTreeProtocol
        return SpanningTreeProtocol()

    def build_network(self, n: int, seed: int = 1) -> Network:
        from repro.graphs import random_connected_graph
        return random_connected_graph(n, seed=seed)

    def legitimate(self, net: Network) -> Config:
        root = net.min_id
        tree = bfs_tree(net, root=root)
        return {
            v: {"rid": root,
                "par": NONE if tree.parent(v) is None else tree.parent(v),
                "d": tree.depth(v)}
            for v in net.nodes
        }

    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        rid, par, d = state["rid"], state["par"], state["d"]
        if not isinstance(d, int) or not 0 <= d < net.n_bound:
            return False
        if not isinstance(rid, int) or rid > node:
            return False
        for _, st in nbr_states:
            if st["rid"] != rid:
                return False
        if not _bfs_optimal_ok(state, nbr_states):
            return False
        if par is NONE:
            return rid == node and d == 0
        if rid == node:
            return False
        for u, st in nbr_states:
            if u == par:
                return isinstance(st["d"], int) and d == st["d"] + 1
        return False


# ----------------------------------------------------------------------
# guided BFS — Theorem 3.1
# ----------------------------------------------------------------------


class GuidedBFSCertifier(LocalCertifier):
    """Tree layer (redundant (d, s) labels, full), BFS optimality, and
    the phase layer's silent fixpoint, all from the runtime registers."""

    task = "guided-bfs"
    space_bound = "O(log n)"

    def protocol(self) -> Protocol:
        return guided_bfs_protocol()

    def build_network(self, n: int, seed: int = 1) -> Network:
        from repro.graphs import random_connected_graph
        return random_connected_graph(n, seed=seed)

    def legitimate(self, net: Network) -> Config:
        proto = self.protocol()
        tree = bfs_tree(net, root=net.min_id)
        cfg = self._seeded_tree_config(net, proto, tree)
        self._settle_phase(cfg)
        return cfg

    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        return (_tree_full_ok(net, node, state, nbr_states)
                and _bfs_optimal_ok(state, nbr_states)
                and _phase_silent_ok(node, state, nbr_states))


# ----------------------------------------------------------------------
# NCA labels — Lemma 5.1
# ----------------------------------------------------------------------


class NCACertifier(LocalCertifier):
    """The tree certificate plus heavy-child/NCA-label derivation: the
    Lemma 5.1 scheme read directly off the (hv, lam) registers."""

    task = "nca-build"
    space_bound = "O(log n)"

    def protocol(self) -> Protocol:
        from repro.core.tasks import NCALabelLayer
        from repro.runtime.protocol import ComposedProtocol
        return ComposedProtocol([MalleableTreeProtocol(), NCALabelLayer()],
                                name="tree+nca")

    def build_network(self, n: int, seed: int = 1) -> Network:
        from repro.graphs import random_tree_graph
        return random_tree_graph(n, seed=seed)

    def legitimate(self, net: Network) -> Config:
        proto = self.protocol()
        tree = bfs_tree(net, root=net.min_id)
        cfg = self._seeded_tree_config(net, proto, tree)
        self._settle_nca(net, cfg, tree)
        return cfg

    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        return (_tree_full_ok(net, node, state, nbr_states)
                and _nca_ok(node, state, nbr_states))


# ----------------------------------------------------------------------
# MST — Corollary 6.1, the O(log^2 n)-bit Boruvka trace
# ----------------------------------------------------------------------


def _bt_field(name: str = "bt") -> Field:
    """The register-carried Boruvka trace: a tuple of
    ``(fragment, dist, out_edge)`` levels, ``out_edge`` a ``(a, b, w)``
    triple or NONE at the top level."""

    def bits(net: Network, value) -> int:
        id_bits = bits_for_id(net.id_space)
        per_level = (id_bits + bits_for_counter(net.n_bound)
                     + bits_for_option(2 * id_bits
                                       + bits_for_weight(net.weight_space())))
        try:
            k = len(value)
        except TypeError:
            k = 0
        # level count header + the levels themselves
        return bits_for_counter(net.n_bound.bit_length() + 1) + k * per_level

    def corrupt(net: Network, node: int, rng: random.Random):
        k = rng.randint(1, max(1, net.n_bound.bit_length()) + 1)
        levels = []
        for i in range(k):
            frag = rng.randint(1, net.id_space)
            dist = rng.randint(0, net.n_bound)
            if i == k - 1 or rng.random() < 0.2:
                edge = NONE
            else:
                edge = (rng.randint(1, net.id_space),
                        rng.randint(1, net.id_space),
                        rng.randint(1, max(1, net.weight_space())))
            levels.append((frag, dist, edge))
        return tuple(levels)

    return custom_field(name, lambda net, node: NONE, bits, corrupt)


class GuidedMSTCertifier(LocalCertifier):
    """The full guided-MST fixpoint plus the Section VI trace certificate.

    The assigner simulates Boruvka on the configuration's tree and stores
    each node's ``(F_i, dist_i, f_i)`` trace in the ``bt`` register; the
    verifier delegates the per-node check to
    :meth:`repro.labeling.mst_pls.MSTPLS.verify_at` over a mapping that
    physically contains only the 1-hop neighborhood, with graph
    minimality on — acceptance everywhere certifies that the tree is
    *the* MST, which is exactly the detector's silence condition.
    """

    task = "guided-mst"
    space_bound = "O(log^2 n)"

    _pls = MSTPLS()

    def protocol(self) -> Protocol:
        return guided_mst_protocol()

    def cert_fields(self, net: Network) -> list[Field]:
        return [_bt_field()]

    def build_network(self, n: int, seed: int = 1) -> Network:
        from repro.graphs import random_connected_graph
        return random_connected_graph(n, seed=seed, weighted=True)

    def legitimate(self, net: Network) -> Config:
        from repro.baselines.sequential_mst import kruskal_mst
        proto = self.protocol()
        tree = tree_from_edges(net, kruskal_mst(net), root=net.min_id)
        cfg = self._seeded_tree_config(net, proto, tree)
        self._settle_phase(cfg)
        self._settle_nca(net, cfg, tree)
        self._settle_ver(net, cfg)
        return self.certify(net, cfg)

    def certify(self, net: Network, config: Config) -> Config:
        cfg = {v: dict(state) for v, state in config.items()}
        tree = tree_of_config(net, cfg)  # raises ValueError on non-trees
        trace = boruvka_trace(net, tree)
        for v in net.nodes:
            cfg[v]["bt"] = tuple(
                (lv.fragment, lv.dist,
                 NONE if lv.out_edge is None else lv.out_edge)
                for lv in trace[v])
        return cfg

    @staticmethod
    def _as_mst_cert(state) -> MSTCertificate:
        levels = tuple(
            BoruvkaLevel(frag, dist, None if edge is NONE else tuple(edge))
            for frag, dist, edge in state["bt"])
        par = state["par"]
        return MSTCertificate(rid=state["rid"],
                              par=None if par is NONE else par,
                              d=state["d"], levels=levels)

    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        if not (_tree_full_ok(net, node, state, nbr_states)
                and _phase_silent_ok(node, state, nbr_states)
                and _nca_ok(node, state, nbr_states)
                and _ver_ok(node, state, nbr_states, ORACLE_DIGEST_FIELDS)):
            return False
        labels = {node: self._as_mst_cert(state)}
        for u, st in nbr_states:
            labels[u] = self._as_mst_cert(st)
        return self._pls.verify_at(net, node, labels)


# ----------------------------------------------------------------------
# MDST — Corollary 8.1, the O(log n)-bit FR certificate
# ----------------------------------------------------------------------


def _fr_fields() -> list[Field]:
    """Registers of the Lemma 8.1 certificate: claimed degree ``frk`` with
    witness distance ``frkd``, the good/bad mark, and the good-fragment
    identity/owner-distance pair."""

    def opt_corrupt(hi):
        def fn(net, node, rng):
            if rng.random() < 0.25:
                return NONE
            return rng.randint(0, hi(net))
        return fn

    return [
        custom_field("frk", lambda net, node: 0,
                     lambda net, v: bits_for_counter(net.n_bound),
                     lambda net, node, rng: rng.randint(0, net.n_bound)),
        custom_field("frkd", lambda net, node: 0,
                     lambda net, v: bits_for_counter(net.n_bound),
                     lambda net, node, rng: rng.randint(0, net.n_bound)),
        custom_field("frgood", lambda net, node: False,
                     lambda net, v: 1,
                     lambda net, node, rng: rng.random() < 0.5),
        custom_field("frfrag", lambda net, node: NONE,
                     lambda net, v: bits_for_option(bits_for_id(net.id_space)),
                     lambda net, node, rng: (NONE if rng.random() < 0.25
                                             else rng.randint(1, net.id_space))),
        custom_field("frfd", lambda net, node: NONE,
                     lambda net, v: bits_for_option(bits_for_counter(net.n_bound)),
                     opt_corrupt(lambda net: net.n_bound)),
    ]


class GuidedMDSTCertifier(LocalCertifier):
    """The full guided-MDST fixpoint plus the Lemma 8.1 FR certificate.

    The assigner runs the marking cascade on the configuration's tree
    (which must be an FR-tree) and stores each node's
    ``(k, dk_dist, good, frag, fdist)`` certificate; the verifier
    delegates to :meth:`repro.labeling.fr_pls.FRTreePLS.verify_at` over
    the 1-hop mapping.  Acceptance everywhere certifies Definition 8.1 —
    hence ``deg(T) <= OPT + 1`` by [33, Thm 2.2] — which is the
    detector's silence condition.
    """

    task = "guided-mdst"
    space_bound = "O(log n)"

    _pls = FRTreePLS()

    def protocol(self) -> Protocol:
        return guided_mdst_protocol()

    def cert_fields(self, net: Network) -> list[Field]:
        return _fr_fields()

    def build_network(self, n: int, seed: int = 1) -> Network:
        from repro.graphs import random_connected_graph
        return random_connected_graph(n, extra_edges=2 * n, seed=seed)

    def legitimate(self, net: Network) -> Config:
        from repro.core.fr import fuerer_raghavachari
        run = fuerer_raghavachari(net)
        tree = (run.tree if run.tree.root == net.min_id
                else run.tree.rerooted(net.min_id))
        proto = self.protocol()
        cfg = self._seeded_tree_config(net, proto, tree)
        self._settle_phase(cfg)
        self._settle_nca(net, cfg, tree)
        self._settle_ver(net, cfg)
        return self.certify(net, cfg)

    def certify(self, net: Network, config: Config) -> Config:
        from repro.core.fr import fr_marking
        cfg = {v: dict(state) for v, state in config.items()}
        tree = tree_of_config(net, cfg)  # raises ValueError on non-trees
        marking = fr_marking(net, tree)
        if not marking.is_fr:
            raise ValueError("configuration's tree is not an FR-tree")
        labels = self._pls.prove(net, tree, marking)
        for v in net.nodes:
            lab = labels[v]
            cfg[v].update(
                frk=lab.k, frkd=lab.dk_dist, frgood=lab.good,
                frfrag=NONE if lab.frag is None else lab.frag,
                frfd=NONE if lab.fdist is None else lab.fdist)
        return cfg

    @staticmethod
    def _as_fr_cert(state) -> FRCertificate:
        par = state["par"]
        frag, fdist = state["frfrag"], state["frfd"]
        return FRCertificate(
            rid=state["rid"], par=None if par is NONE else par,
            d=state["d"], k=state["frk"], dk_dist=state["frkd"],
            good=bool(state["frgood"]),
            frag=None if frag is NONE else frag,
            fdist=None if fdist is NONE else fdist)

    def verify_node(self, net: Network, node: int, state,
                    nbr_states: NbrStates) -> bool:
        if not (_tree_full_ok(net, node, state, nbr_states)
                and _phase_silent_ok(node, state, nbr_states)
                and _nca_ok(node, state, nbr_states)
                and _ver_ok(node, state, nbr_states, ORACLE_DIGEST_FIELDS)):
            return False
        labels = {node: self._as_fr_cert(state)}
        for u, st in nbr_states:
            labels[u] = self._as_fr_cert(st)
        return self._pls.verify_at(net, node, labels)


# ----------------------------------------------------------------------
# registry + adversarial corruption enumeration
# ----------------------------------------------------------------------


CERTIFIERS: dict[str, LocalCertifier] = {
    c.task: c
    for c in (SSTCertifier(), GuidedBFSCertifier(), NCACertifier(),
              GuidedMSTCertifier(), GuidedMDSTCertifier())
}


def get_certifier(task: str) -> LocalCertifier:
    if task not in CERTIFIERS:
        raise KeyError(f"no certifier for task {task!r} "
                       f"(known: {', '.join(sorted(CERTIFIERS))})")
    return CERTIFIERS[task]


def single_register_corruptions(
        net: Network, certifier: LocalCertifier, config: Config,
        rng: random.Random, draws: int = 6,
) -> Iterator[tuple[int, str, object]]:
    """Enumerate single-register corruptions of a certified configuration.

    For every node and every field, yields ``draws`` distinct arbitrary
    domain values drawn from the field's corruption sampler (the fault
    model of Section II-A), skipping values equal to the current
    register content.  Each yielded triple describes one corrupted
    configuration differing from ``config`` in exactly one field of one
    node's register.
    """
    spec = certifier.register_spec(net)
    for v in sorted(config):
        for field in spec.names:
            seen: set[str] = set()
            current = repr(config[v].get(field))
            for _ in range(draws):
                value = spec.field(field).corrupt(net, v, rng)
                key = repr(value)
                if key == current or key in seen:
                    continue
                seen.add(key)
                yield v, field, value
