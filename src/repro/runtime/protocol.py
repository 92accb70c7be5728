"""Guarded-rule protocols in the state model.

A protocol defines, for every node, the transition function delta applied in
one atomic step: read the node's own register and the registers of its
neighbors, compute, write.  A protocol states delta once, in one of two
forms: :meth:`Protocol.fast_step_slots` compiles it to a slot-indexed
rule over raw register rows, or :meth:`Protocol.step` states it over a
:class:`NodeView` (the engine then runs it through
:func:`adapt_step_to_slots`).  :func:`slot_rule` returns whichever the
protocol defines, as one slot rule; the engine, the from-scratch rescan
and the model checker all evaluate that rule.  A rule returns either
``None`` (the node is *not enabled*: its register already holds what
delta would write) or the field updates (the node is *enabled*; applying
them is its step).

Determinism requirement: the rule must be a pure function of the node's
state, its neighbors' states, and the incorruptible constants.  The
simulator relies on this to cache enabledness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from repro.graphs.network import Network
from repro.runtime.registers import RegisterSpec
from repro.runtime.schema import SlotState

__all__ = ["NodeView", "Protocol", "ComposedProtocol", "RULE_ENTRYPOINTS",
           "OBS_ENTRYPOINTS", "effective_delta", "slot_rule",
           "adapt_step_to_slots", "patched_config"]

#: The rule surface of a protocol, in evaluation-preference order: the
#: names a subclass may implement to define its transition function.
#: ``repro.statics`` analyzes exactly these entrypoints, and
#: :meth:`Protocol.rule_contract` reports which of them a class actually
#: overrides — one definition of "the rule surface" shared by the
#: runtime, the analyzer, and the docs.
RULE_ENTRYPOINTS: tuple[str, ...] = ("step", "fast_step_slots",
                                     "interrupt_step")

#: The observer surface: probe callbacks the telemetry layer
#: (:mod:`repro.obs`) invokes *between* atomic steps, never from inside
#: one.  They read the whole configuration by design (a potential
#: function is a global quantity), produce no deltas, and are therefore
#: outside the rule contract — ``repro.statics`` never chases a call to
#: one of these names into L/W-series findings, exactly as it never
#: analyzes them as entrypoints.
OBS_ENTRYPOINTS: tuple[str, ...] = ("probe_potential",)


def effective_delta(rule, net: Network, config,
                    node: int) -> dict[int, object] | None:
    """The slots the slot rule ``rule`` would *actually change* at ``node``.

    ``config`` maps every node to its :class:`SlotState` view; the rule
    runs on the node's row and on neighbor rows read afresh from
    ``net``.  Rules may return updates that restate current values;
    enabledness is defined on the effective write (register differs from
    what delta would store), so those no-op slots are filtered out here.
    Returns ``None`` when the node is not enabled.  The from-scratch
    evaluation behind :meth:`Simulator.rescan_enabled` and the model
    checker.
    """
    own = config[node].row
    delta = rule(net, config, node, own,
                 tuple((u, config[u].row) for u in net.neighbors(node)))
    if not delta:
        return None
    delta = {k: val for k, val in delta.items() if own[k] != val}
    return delta or None


class NodeView:
    """Everything a node may legally read during one atomic step.

    Exposes the node's incorruptible constants (its id, its neighbors, the
    incident edge weights, the bounds ``n_bound`` and ``id_space``), its own
    register, and its neighbors' registers.  Nothing else: protocols written
    against this interface cannot cheat by peeking at global state.
    """

    __slots__ = ("net", "node", "_config")

    def __init__(self, net: Network, node: int,
                 config: Mapping[int, Mapping[str, object]]) -> None:
        self.net = net
        self.node = node
        self._config = config

    # -- incorruptible constants --------------------------------------

    @property
    def id(self) -> int:
        return self.node

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self.net.neighbors(self.node)

    @property
    def degree(self) -> int:
        return self.net.degree(self.node)

    @property
    def n_bound(self) -> int:
        """Public upper bound N >= n."""
        return self.net.n_bound

    @property
    def id_space(self) -> int:
        return self.net.id_space

    def weight(self, nbr: int) -> int:
        """Weight of the edge to neighbor ``nbr``."""
        return self.net.weight(self.node, nbr)

    # -- registers ------------------------------------------------------

    @property
    def state(self) -> Mapping[str, object]:
        """The node's own register."""
        return self._config[self.node]

    def __getitem__(self, field: str) -> object:
        return self._config[self.node][field]

    def nbr(self, nbr: int) -> Mapping[str, object]:
        """A neighbor's register (read-only)."""
        if not self.is_neighbor(nbr):
            raise KeyError(f"{nbr!r} is not a neighbor of {self.node}")
        return self._config[nbr]

    def is_neighbor(self, u) -> bool:
        """Whether ``u`` is a neighbor of this node (O(1)).

        Tolerates arbitrary junk (including unhashable values a corrupted
        custom field might hold): anything that cannot be a node identity
        is simply not a neighbor.
        """
        try:
            return u in self.net.neighbor_set(self.node)
        except TypeError:
            return False

    def nbr_or_none(self, u):
        """A neighbor's register, or None when ``u`` is not a neighbor.

        Single membership probe — the non-raising counterpart of
        :meth:`nbr` for rules that must tolerate junk pointers in
        corrupted registers.
        """
        try:
            if u in self.net.neighbor_set(self.node):
                return self._config[u]
        except TypeError:
            pass
        return None

    def nbr_states(self) -> Sequence[tuple[int, Mapping[str, object]]]:
        """``(neighbor_id, register)`` pairs in ascending neighbor order."""
        config = self._config
        return [(u, config[u]) for u in self.net.neighbors(self.node)]


class Protocol(ABC):
    """A distributed algorithm in the state model."""

    #: Short name used in reports.
    name: str = "protocol"

    def fast_step_slots(self, schema):
        """Compile the slot-indexed engine fast path, or return ``None``.

        ``schema`` is the :class:`~repro.runtime.schema.StateSchema` the
        simulator compiled for this ``(protocol, network)`` binding.  A
        protocol that opts in resolves its field names to slot indices
        *once* and returns a rule

        ``rule(net, config, node, own, nbr_rows) -> dict[int, object] | None``

        where ``config`` maps every node to its live
        :class:`~repro.runtime.schema.SlotState` view (random access for
        e.g. parent lookups; raw rows via ``config[u].row``), ``own`` is
        the node's raw slot row, and ``nbr_rows`` is the ascending
        ``(neighbor, raw_row)`` pair sequence.  The returned delta is
        keyed by **slot index**.  A protocol that defines this rule
        defines no :meth:`step`: the compiled rule is its only statement
        of delta, and every evaluator runs it (see :func:`slot_rule`).

        Inside a :class:`ComposedProtocol` the composition passes each
        layer a *patched* ``own`` row carrying the updates of the layers
        below it at this node — a compiled rule must therefore read its
        own register only through ``own``, never through
        ``config[node]`` (neighbors are always read unpatched, as the
        state model prescribes).

        Default: ``None`` — :func:`slot_rule` runs :meth:`step` through
        :func:`adapt_step_to_slots` over the Mapping-compatible views.
        """
        return None

    # always None: perfbench/tracer.py still wraps this name
    def vector_step(self, schema, cols):
        return None

    #: Whether the rule surface is sound under partitioned (sharded)
    #: execution.  A shard evaluates its owned nodes on a subgraph of
    #: owned nodes plus their 1-hop halo, with the same slot rule as the
    #: single-process engine, so the rules must read the node's closed
    #: neighborhood *and nothing else*: no oracle consults, no memo
    #: state shared across the instance.  Protocols whose steps consult
    #: the certified oracle (the PLS-guided MST/MDST constructions) set
    #: this False, and :class:`~repro.runtime.sharding.ShardedSimulator`
    #: refuses them at construction.
    shardable: bool = True

    #: Set to True when the protocol's rule (:func:`slot_rule`) only ever
    #: returns *effective* writes — every returned field differs from the
    #: register's current value.  The engine then skips its per-proposal
    #: no-op filter.  Leave False (the default) when in doubt: returning a
    #: restating field with True silently corrupts enabledness.
    exact_deltas: bool = False

    #: Set to True when a node that has just applied its *own* proposed
    #: delta is guaranteed disabled until some neighbor's register next
    #: changes — i.e. the rule, re-evaluated on the post-write register
    #: against the unchanged neighborhood it was proposed from, returns
    #: ``None``.  The engine then retires the mover from the enabled set
    #: at apply time instead of re-evaluating its transition (roughly one
    #: rule evaluation saved per move).  Most silent protocols whose rule
    #: writes a local fixpoint have this property; leave False when in
    #: doubt — the claim is cross-checked by the incremental-vs-rescan
    #: suite, not by the engine.
    settles_after_move: bool = False

    def fast_write_impact(self, schema):
        """Compile the write-impact filter, or return ``None``.

        An opted-in protocol returns

        ``impact(net, rows, v, delta, old, proposal)
        -> Sequence[int] | None``

        called by the engine right after applying a single-node write:
        ``rows`` is the live slot-row table (post-write), ``delta`` the
        slot-keyed writes just applied to ``v``, ``old`` the displaced
        values of exactly those slots, and ``proposal`` the engine's
        fresh proposal table (slot-keyed delta or ``None`` per node,
        valid as of the pre-write configuration — a node's row merged
        with its proposal is the register its own rule would produce).
        It returns the neighbors of ``v`` whose transition output may
        have changed — a *sound over-approximation* of the affected
        set — or ``None`` to decline (the engine then invalidates the
        whole neighborhood, the default discipline).  A correct filter
        reads only ``v``'s and its neighbors' rows and proposals (the
        same 1-hop surface as the rule).

        This is an engine-side invalidation hint, not a rule entrypoint:
        it produces no deltas and is exempt from the rule contract; its
        soundness is pinned by the incremental-vs-rescan and golden
        bit-identity suites, which run with and without it.

        Default: ``None`` — every write invalidates its neighborhood.
        """
        return None

    def interrupt_step(self, schema):
        """Compile the topology-interrupt rule, or return ``None``.

        Super-stabilization's *interrupt section* (the dynamics engine,
        :mod:`repro.runtime.dynamics`): when a topology event removes
        part of a node's neighborhood, the node may execute one
        prioritized corrective write before normal scheduling resumes.
        A protocol that opts in resolves its slots once and returns a
        rule

        ``rule(net, config, node, own, event) -> dict[int, object] | None``

        called once per *touched surviving* node right after the event's
        :class:`~repro.graphs.network.Network` revision is bound:
        ``net`` is the post-event network, ``own`` the node's raw slot
        row, and ``event`` the topology event
        (:mod:`repro.runtime.dynamics.events`).  The returned delta is
        slot-keyed, like :meth:`fast_step_slots`.  The rule must be a
        function of the node's own register and the event only — it is a
        :data:`RULE_ENTRYPOINTS` member, so ``repro.statics`` proves its
        read/write footprint like any other rule.

        Default: ``None`` — no interrupt section; touched nodes are
        simply re-proposed through the ordinary dirty-set machinery.
        A :class:`ComposedProtocol` keeps the default.
        """
        return None

    def on_topology_event(self, old_net: Network, new_net: Network,
                          event: object) -> bool:
        """Lifecycle hook: a topology event replaced ``old_net``.

        Invoked by the dynamics engine after it binds the revised
        network but before re-proposing.  Protocols holding per-network
        caches (oracle memos keyed under the old topology) flush them
        here.  Returns True when the flush invalidates *every* cached
        proposal (the engine then raises the all-dirty flag instead of
        dirtying only the event's write-neighborhood).  Like
        :meth:`fast_write_impact`, this is an engine-side hook, not a
        rule entrypoint: it produces no deltas.  Default: keep nothing,
        invalidate nothing extra.
        """
        return False

    @abstractmethod
    def register_spec(self, net: Network) -> RegisterSpec:
        """The register layout each node uses on network ``net``."""

    def step(self, view: NodeView) -> dict[str, object] | None:
        """The transition function delta over a :class:`NodeView`.

        Return ``None`` (or an empty/no-op dict) when the register already
        holds what delta computes; otherwise return the new values for the
        fields that change.  Implement this or :meth:`fast_step_slots`,
        not both: a protocol with a compiled rule defines no ``step``.
        """
        raise NotImplementedError(
            f"{self.name} defines its rule as fast_step_slots only")

    # -- observer surface (repro.obs probes; not part of the rule) --------

    def probe_potential(self, net: Network,
                        config: Mapping[int, Mapping[str, object]],
                        ) -> int | None:
        """The protocol's convergence potential on ``config``, or ``None``.

        An :data:`OBS_ENTRYPOINTS` member: a *global* measurement the
        telemetry layer samples at round edges to plot per-round potential
        descent (the quantity the paper's round-complexity arguments
        decrease).  Deliberately outside the rule surface — nodes never
        read it, rules never call it, and the engine only invokes it
        between atomic steps, so its whole-configuration read does not
        violate any layer's locality contract.  Implementations must be
        total on *arbitrary* (corrupted) configurations and side-effect
        free.  Default: no potential defined.
        """
        return None

    # -- contract metadata ------------------------------------------------

    def rule_contract(self) -> dict[str, object]:
        """Machine-readable summary of this protocol's rule surface.

        Reports the declared contracts (:attr:`exact_deltas`,
        :attr:`shardable`) plus which of :data:`RULE_ENTRYPOINTS`
        this class actually implements (i.e. overrides away from the
        :class:`Protocol` defaults).  ``repro.statics`` drives its
        analysis off this — the analyzer never guesses at the surface —
        and compositions report their layers recursively.
        """
        cls = type(self)

        def _overridden(name: str) -> bool:
            defining = next(
                (c for c in cls.__mro__ if name in c.__dict__), None)
            return defining is not None and defining is not Protocol

        entrypoints = {name: _overridden(name) for name in RULE_ENTRYPOINTS}
        # the observer surface is reported separately so tooling can see
        # it exists without ever mistaking it for part of the rule
        observers = {name: _overridden(name) for name in OBS_ENTRYPOINTS}
        return {
            "protocol": self.name,
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "exact_deltas": self.exact_deltas,
            "shardable": self.shardable,
            "entrypoints": entrypoints,
            "observers": observers,
            "layers": None,
        }

    # -- optional hooks ---------------------------------------------------

    def is_legal(self, net: Network, config: Mapping[int, Mapping[str, object]]) -> bool:
        """Task-level legality predicate (used by tests, not by nodes)."""
        raise NotImplementedError(f"{self.name} defines no legality predicate")

    def initial_configuration(self, net: Network) -> dict[int, dict[str, object]]:
        """The all-defaults configuration (NOT assumed by self-stabilization)."""
        spec = self.register_spec(net)
        return {v: spec.default_state(net, v) for v in net.nodes}


class ComposedProtocol(Protocol):
    """Hierarchical (collateral) composition of protocol layers.

    Layers share one register; field names must not collide.  In one atomic
    step the layers are evaluated in order and each layer sees the updates
    proposed by the layers below it *at this node* (a node writes its whole
    register atomically, so this is faithful to the state model), while
    neighbor registers are read as they currently are.
    """

    def __init__(self, layers: list[Protocol], name: str = "composed") -> None:
        if not layers:
            raise ValueError("composition needs at least one layer")
        self.layers = list(layers)
        self.name = name
        # one unshardable layer makes the whole atomic step unshardable
        self.shardable = all(l.shardable for l in layers)

    def register_spec(self, net: Network) -> RegisterSpec:
        spec = self.layers[0].register_spec(net)
        for layer in self.layers[1:]:
            spec = spec.merged(layer.register_spec(net))
        return spec

    def fast_step_slots(self, schema):
        """The composed slot-indexed fast path (see :class:`Protocol`).

        Runs each layer's :func:`slot_rule` in order, so compiled
        layers run index-first even beside a sibling layer that steps
        through NodeView.  Each layer sees this node's register patched
        with the updates of the layers below it (a private copy of the
        row), while neighbor registers are read as they currently are.
        """
        rules = [slot_rule(layer, schema) for layer in self.layers]

        def composed(net, config, node, own, nbr_rows, _rules=tuple(rules)):
            updates = None
            cur = own
            for rule in _rules:
                delta = rule(net, config, node, cur, nbr_rows)
                if delta:
                    if updates is None:
                        updates = {}
                        cur = own.copy()
                    updates.update(delta)
                    for i, val in delta.items():
                        cur[i] = val
            return updates

        return composed

    def on_topology_event(self, old_net: Network, new_net: Network,
                          event: object) -> bool:
        invalidate = False
        for layer in self.layers:
            if layer.on_topology_event(old_net, new_net, event):
                invalidate = True
        return invalidate

    def is_legal(self, net: Network, config) -> bool:
        return all(_safe_legal(layer, net, config) for layer in self.layers)

    def probe_potential(self, net: Network, config) -> int | None:
        """Sum of the implementing layers' potentials (None if none do)."""
        values = [layer.probe_potential(net, config)
                  for layer in self.layers]
        values = [v for v in values if v is not None]
        return sum(values) if values else None

    def rule_contract(self) -> dict[str, object]:
        contract = super().rule_contract()
        contract["layers"] = [layer.rule_contract()
                              for layer in self.layers]
        return contract


def _safe_legal(layer: Protocol, net: Network, config) -> bool:
    try:
        return layer.is_legal(net, config)
    except NotImplementedError:
        return True


def slot_rule(protocol: Protocol, schema):
    """The one slot rule of ``protocol`` on ``schema``: its compiled
    :meth:`Protocol.fast_step_slots` rule, else its name-keyed
    :meth:`Protocol.step` through :func:`adapt_step_to_slots`."""
    return (protocol.fast_step_slots(schema)
            or adapt_step_to_slots(protocol, schema))


def adapt_step_to_slots(protocol: Protocol, schema):
    """Wrap a name-keyed :meth:`Protocol.step` as a slot-indexed rule.

    The bridge :func:`slot_rule` uses for protocols that have no
    hand-compiled ``fast_step_slots``: ``step`` runs over a NodeView
    whose own-register entry is the (possibly patched) slot row handed
    down by the composition, and the returned name-keyed delta is
    re-keyed to slot indices.  Exactly as fast as ``step`` — the adapter
    exists for semantic uniformity of the engine's slot plane, not for
    speed.

    Write-ownership audit (statics W-series): this bridge never mutates
    the rows it receives — the re-keyed delta is a fresh dict, the
    patched own register is wrapped read-only in a :class:`SlotState`
    view, and the composition above
    (:meth:`ComposedProtocol.fast_step_slots`) copies before applying
    pending layer updates (``own.copy()``).  The in-place ``cur`` writes
    in the composed slot rule land on that private copy only.
    """
    step = protocol.step
    index = schema.index

    def rule(net, config, node, own, nbr_rows):
        delta = step(NodeView(net, node,
                              patched_config(schema, config, node, own)))
        if not delta:
            return None
        return {index[k]: v for k, v in delta.items()}

    return rule


def patched_config(schema, config, node: int, own: list):
    """The configuration a name-keyed ``step`` sees at ``node`` when a
    slot rule is handed the row ``own``.

    ``config`` itself when ``own`` is the node's live row; otherwise
    (a composition overlay: the layers below patched this node's
    register) a view with ``own`` patched in through a
    :class:`SlotState`.  Shared by :func:`adapt_step_to_slots` and by
    compiled rules that hand a configuration to name-keyed code (the
    guided tasks' oracle thunk), so both see the patched register.
    """
    if config[node].row is own:
        return config
    return _Overlay(config, node, SlotState(schema, own))


class _Overlay:
    """A configuration view with one node's register patched."""

    __slots__ = ("_base", "_node", "_patched")

    def __init__(self, base, node: int, patched) -> None:
        self._base = base
        self._node = node
        self._patched = patched

    def __getitem__(self, node: int):
        if node == self._node:
            return self._patched
        return self._base[node]
