"""The certificate-backed oracle: subtree digests + a digest-keyed memo.

The PLS-guided MST/MDST constructions take their *detector decision* —
which ``(e, f)`` improvement to execute next — at the root
(EXPERIMENTS.md, "Substitutions", substitution 6: the paper's companion
report implements this decision with convergecast/broadcast waves over
the certificates; this repo substitutes a sequential decision
procedure).  A root rule that simply read the whole configuration would
leave the engine no choice but to invalidate every cached proposal on
any write anywhere, the exact O(n)-rescan behavior the incremental
enabled-set engine exists to avoid.

This module removes the global read from the *transition function*:

* :class:`DigestLayer` maintains, at every node, a register field ``ver``
  holding a Merkle-style digest of the node's oracle-relevant fields plus
  its tree children's digests.  The rule is a pure 1-hop fixpoint
  (recompute-when-stale), silent exactly when every digest is consistent;
  at the fixpoint the root's 1-hop neighborhood determines (through the
  digest chain) the oracle-relevant content of the *entire* configuration.
  A remote write therefore reaches the root as a chain of ordinary
  register writes — exactly the invalidation discipline the incremental
  engine already implements for neighborhood readers.

* :class:`CertifiedOracle` memoizes the decision procedure keyed by the
  root's 1-hop digest.  The expensive global computation runs once per
  distinct digest; *every* re-evaluation of the root's rule under the
  same digest — the engine's cached proposal, the from-scratch rescan the
  property tests cross-check against, a different daemon interleaving —
  returns the identical memoized decision.  Cached proposals can thus
  never go stale: the consulting rule is a pure function of the 1-hop
  view (plus the write-once memo every evaluation shares), so the guided
  protocols run on the engine's ordinary 1-hop invalidation, like every
  other rule of the state model.

The digest is the *certificate* backing the oracle: 64 bits of sha256,
constant-size per register (the space table reports it), self-correcting
from any corruption, and collision-resistant enough that two different
oracle-relevant configurations sharing a digest chain is not a practical
concern (and would cost at most one stale — valid but useless — decision,
which the phase machinery already tolerates from arbitrary initial
states).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping

from repro.graphs.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.registers import RegisterSpec, custom_field

__all__ = ["DigestLayer", "CertifiedOracle", "DIGEST_BITS"]

#: Digest width carried per register (sha256 truncated).
DIGEST_BITS = 64


def _digest(payload: str) -> int:
    return int.from_bytes(
        hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big")


def node_digest(node: int, content: tuple, kids: tuple) -> int:
    """The Merkle node formula shared by the runtime rule
    (:meth:`DigestLayer.slot_expected`), the assigner (:func:`config_digest`)
    and the local verifier (``repro.certify.schemes._ver_ok``) — one
    definition, so the three sites cannot drift apart."""
    return _digest(repr((node, content, kids)))


class DigestLayer(Protocol):
    """Register-carried Merkle digests over the oracle-relevant fields.

    ``ver(v) = H(v, content(v), sorted (c, ver(c)) over tree children c)``
    where ``content`` is the tuple of :attr:`fields` values and children
    are the neighbors whose ``par`` pointer names ``v``.  The rule
    rewrites a stale ``ver`` — a pure 1-hop fixpoint.

    Convergence: on a stable tree the children relation is acyclic, so
    digests settle bottom-up in O(depth) rounds.  While parent pointers
    still form cycles the digests may chase each other, but a selected
    node always applies *all* of its layers' corrections in one atomic
    step (collateral composition), so the tree layer's distance chase
    advances with every such step and flushes the cycle — digest churn
    cannot starve recovery.
    """

    name = "cert-digest"

    def __init__(self, fields: tuple[str, ...]) -> None:
        self.fields = tuple(fields)

    def register_spec(self, net: Network) -> RegisterSpec:
        return RegisterSpec([
            custom_field(
                "ver",
                lambda n, v: 0,
                lambda n, value: DIGEST_BITS,
                lambda n, v, rng: rng.getrandbits(DIGEST_BITS),
            ),
        ])

    def slot_expected(self, schema):
        """The digest the 1-hop neighborhood dictates for a node,
        compiled to slot indices: ``expected(me, own, nbr_rows) -> int``.

        The three digest sites (this runtime rule, the assigner and the
        verifier) share :func:`node_digest`.  Covered fields absent from
        the schema contribute ``repr(None)``, as the assigner's
        ``state.get`` does.  Reads its own (possibly composition-patched)
        register only through ``own``.  Compiled once by
        :meth:`fast_step_slots` and by the oracle consumers keying their
        consults on it.
        """
        index = schema.index
        VER = index["ver"]
        PARF = index.get("par")
        field_slots = tuple(index.get(f) for f in self.fields)

        def expected(me, own, nbr_rows) -> int:
            content = tuple(
                repr(own[i]) if i is not None else "None"
                for i in field_slots)
            if PARF is None:
                kids = ()
            else:
                kids = tuple(sorted(
                    (u, st[VER]) for u, st in nbr_rows if st[PARF] == me))
            return node_digest(me, content, kids)

        return expected

    def fast_step_slots(self, schema):
        """The digest fixpoint compiled to slot indices: rewrite a stale
        ``ver`` with :meth:`slot_expected`."""
        VER = schema.index["ver"]
        expected = self.slot_expected(schema)

        def rule(net, config, me, own, nbr_rows) -> dict | None:
            want = expected(me, own, nbr_rows)
            if own[VER] != want:
                return {VER: want}
            return None

        return rule


class CertifiedOracle:
    """A global decision procedure behind a digest-keyed write-once memo.

    ``consult(key, compute)`` returns the memoized decision for ``key``,
    invoking ``compute`` — the expensive, globally-reading detector — only
    on the first consult of that key.  Because the memo is write-once and
    shared by every evaluation path of the owning protocol instance, the
    consulting rule's value is a deterministic function of its 1-hop view
    for the whole lifetime of a run: the engine's incremental proposals
    and a from-scratch rescan can never disagree.
    """

    __slots__ = ("_memo", "consults", "misses", "retired")

    def __init__(self) -> None:
        self._memo: dict[int, object] = {}
        #: instrumentation: consults, detector invocations, retirements
        self.consults = 0
        self.misses = 0
        self.retired = 0

    def consult(self, key: int, compute: Callable[[], object]) -> object:
        self.consults += 1
        memo = self._memo
        if key in memo:
            return memo[key]
        self.misses += 1
        value = compute()
        memo[key] = value
        return value

    def retire(self, key: int) -> None:
        """Overwrite a decision that demonstrably achieved nothing.

        A decision issued under ``key`` whose SWAP phase completed with
        the digest *unchanged* moved no register the digest covers: it
        was stale (made during a staleness window of the ack snapshots)
        or infeasible, and replaying it whenever the same key recurs is
        a livelock (found by the model checker at 2M states).  Retiring
        maps the key to None — silent — until any covered register
        changes and re-keys the consult.  Idempotent, and only ever
        invoked from the flush evaluation of the phase that executed
        the decision, so every evaluation path still sees a consistent
        memo (the consult path is not evaluated while the issuing root
        is mid-SWAP).
        """
        if self._memo.get(key) is not None:
            self.retired += 1
        self._memo[key] = None


def config_digest(net: Network, config: Mapping[int, Mapping[str, object]],
                  fields: tuple[str, ...]) -> dict[int, int]:
    """The digest fixpoint of a whole configuration (assigner side).

    Used by the certificate assigners to decorate a legitimate
    configuration with the ``ver`` values the :class:`DigestLayer` would
    settle on; raises :class:`ValueError` when the parent pointers do not
    let the fixpoint resolve (not a tree).
    """
    # children exactly as the runtime rule sees them: neighbors whose
    # ``par`` pointer names this node
    children: dict[int, list[int]] = {
        v: [u for u in net.neighbors(v) if config[u].get("par") == v]
        for v in net.nodes
    }
    out: dict[int, int] = {}

    def resolve(v: int, stack: frozenset[int]) -> int:
        if v in out:
            return out[v]
        if v in stack:
            raise ValueError("parent pointers contain a cycle")
        kids = tuple(sorted(
            (u, resolve(u, stack | {v})) for u in children[v]))
        content = tuple(repr(config[v].get(f)) for f in fields)
        out[v] = node_digest(v, content, kids)
        return out[v]

    for v in net.nodes:
        resolve(v, frozenset())
    return out
