"""Guarded-rule protocols in the state model.

A protocol defines, for every node, the transition function delta applied in
one atomic step: read the node's own register and the registers of its
neighbors, compute, write.  A protocol states delta once, as the
slot-indexed rule its :meth:`Protocol.fast_step_slots` compiles over raw
register rows; the engine, the from-scratch rescan and the model checker
all evaluate that rule.  A rule returns either
``None`` (the node is *not enabled*: its register already holds what
delta would write) or the field updates (the node is *enabled*; applying
them is its step).

Determinism requirement: the rule must be a pure function of the node's
state, its neighbors' states, and the incorruptible constants.  The
simulator relies on this to cache enabledness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping

from repro.graphs.network import Network
from repro.runtime.registers import RegisterSpec
from repro.runtime.schema import SlotState

__all__ = ["Protocol", "ComposedProtocol", "RULE_ENTRYPOINTS",
           "OBS_ENTRYPOINTS", "effective_delta", "patched_config"]

#: The rule surface of a protocol: the compiled transition rule and the
#: optional topology-interrupt rule.
#: ``repro.statics`` analyzes exactly these entrypoints, and
#: :meth:`Protocol.rule_contract` reports which of them a class actually
#: overrides — one definition of "the rule surface" shared by the
#: runtime, the analyzer, and the docs.
RULE_ENTRYPOINTS: tuple[str, ...] = ("fast_step_slots", "interrupt_step")

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
    ``net``.  Enabledness is defined on the effective write (register
    differs from what delta would store), so slots that restate current
    values are filtered out here.  Returns ``None`` when the node is not
    enabled.  The from-scratch evaluation behind
    :meth:`Simulator.rescan_enabled` and the model checker: the engine
    trusts rules to return effective deltas, and this definition is what
    catches one that does not.
    """
    own = config[node].row
    delta = rule(net, config, node, own,
                 tuple((u, config[u].row) for u in net.neighbors(node)))
    if not delta:
        return None
    delta = {k: val for k, val in delta.items() if own[k] != val}
    return delta or None


class Protocol(ABC):
    """A distributed algorithm in the state model."""

    #: Short name used in reports.
    name: str = "protocol"

    @abstractmethod
    def fast_step_slots(self, schema):
        """Compile the transition function delta to a slot rule.

        ``schema`` is the :class:`~repro.runtime.schema.StateSchema` the
        simulator compiled for this ``(protocol, network)`` binding.  The
        protocol resolves its field names to slot indices *once* and
        returns a rule

        ``rule(net, config, node, own, nbr_rows) -> dict[int, object] | None``

        where ``config`` maps every node to its live
        :class:`~repro.runtime.schema.SlotState` view (random access for
        e.g. parent lookups; raw rows via ``config[u].row``), ``own`` is
        the node's raw slot row, and ``nbr_rows`` is the ascending
        ``(neighbor, raw_row)`` pair sequence.  The returned delta is
        keyed by **slot index** and *effective*: every slot it names
        differs from ``own``, so the engine reads a non-empty delta as
        "enabled" with no further filtering (a rule that restates a
        value diverges from :func:`effective_delta`, which the rescan
        and the model checker evaluate).  The compiled rule is the
        protocol's only statement of delta, and every evaluator runs it.

        Inside a :class:`ComposedProtocol` the composition passes each
        layer a *patched* ``own`` row carrying the updates of the layers
        below it at this node — a compiled rule must therefore read its
        own register only through ``own``, never through
        ``config[node]`` (neighbors are always read unpatched, as the
        state model prescribes).
        """

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

        Invoked by the dynamics engine once the event is validated,
        before it rebinds the simulator onto ``new_net``
        (:meth:`Simulator.rebind`).  Protocols holding per-network
        caches (oracle memos keyed under the old topology) flush them
        here.  Returns True when the flush invalidates *every* cached
        proposal (the rebind then raises the all-dirty flag instead of
        dirtying only the event's write-neighborhood).  Like
        :meth:`fast_write_impact`, this is an engine-side hook, not a
        rule entrypoint: it produces no deltas.  Default: keep nothing,
        invalidate nothing extra.
        """
        return False

    @abstractmethod
    def register_spec(self, net: Network) -> RegisterSpec:
        """The register layout each node uses on network ``net``."""

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

        Reports the declared contract (:attr:`shardable`) plus which of :data:`RULE_ENTRYPOINTS`
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
        """The composed slot rule (see :class:`Protocol`).

        Runs each layer's compiled rule in order.  Each layer sees this
        node's register patched with the updates of the layers below it,
        while neighbor registers are read as they currently are.  The
        patch lands on a private copy of the row (``own.copy()``), never
        on the live register (statics W-series).  A layer may restore a
        value a lower layer changed; such slots are dropped, so the
        composed delta is effective like every leaf rule's.
        """
        rules = [layer.fast_step_slots(schema) for layer in self.layers]

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
            if updates is None:
                return None
            for i, val in updates.items():
                if own[i] == val:
                    return {i: val for i, val in updates.items()
                            if own[i] != val} or None
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


def patched_config(schema, config, node: int, own: list):
    """The configuration name-keyed code sees at ``node`` when a slot
    rule is handed the row ``own``.

    ``config`` itself when ``own`` is the node's live row; otherwise
    (a composition overlay: the layers below patched this node's
    register) a view with ``own`` patched in through a
    :class:`SlotState`.  Compiled rules that hand a configuration to
    name-keyed code (the guided tasks' oracle thunk) pass it through
    here, so that code sees the patched register.
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
