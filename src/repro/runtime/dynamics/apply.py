"""Applying topology events to networks and to *running* simulators.

Two layers:

* :func:`revise` — pure: ``(Network, event) -> Network``.  The network
  stays immutable (the ``__slots__``/eager-adjacency design); every
  event builds a new revision by patching a copy of the old one
  (:meth:`~repro.graphs.network.Network.patched`: only the touched
  nodes' neighbor rows are re-sorted), carrying the original
  ``id_space`` and ``n_bound`` forward (they are the paper's
  incorruptible public bounds — rule semantics must not drift as the
  population fluctuates).  All
  validity lives here: unknown nodes, duplicate/missing edges,
  disconnecting removals (the constructions assume a connected network;
  partition tolerance is future work), and ``n_bound`` exhaustion are
  refused with a clear :class:`EventError`.

* :func:`apply_event` — the engine rebinding: mutates a live
  :class:`~repro.runtime.simulator.Simulator` onto the revision.
  Surviving nodes keep their register rows *by identity* (the engine's
  rows-mutated-in-place contract), joiners get bottom or spec-sampled
  states, the slot rule is recompiled with the neighbor rows of the
  touched nodes rebuilt, the protocol's interrupt section runs at the
  touched nodes, and exactly the event's write-neighborhood is marked
  dirty — so the incremental :class:`~repro.runtime.scheduler.EnabledSet`
  stays coherent, provable on demand against
  :meth:`Simulator.rescan_enabled` (``check=True``, the event-boundary
  proof obligation the dynamics tests run everywhere).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from repro.graphs.network import Network
from repro.runtime.dynamics.events import (
    EdgeAdd,
    EdgeRemove,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    TopologyEvent,
)
from repro.runtime.simulator import Simulator

__all__ = ["EventError", "EventReport", "revise", "apply_event"]


class EventError(ValueError):
    """A topology event is invalid against the network it targets."""


@dataclass(frozen=True)
class EventReport:
    """What one applied event did to the running simulator."""

    event: TopologyEvent
    #: surviving nodes whose neighborhood the event changed (ascending)
    touched: tuple[int, ...]
    #: effective register writes performed by the interrupt section
    interrupt_writes: int
    n: int
    m: int
    #: enabled-set size once the post-event refresh settled
    enabled_after: int

    def to_dict(self) -> dict[str, Any]:
        return {"event": self.event.to_dict(),
                "touched": list(self.touched),
                "interrupt_writes": self.interrupt_writes,
                "n": self.n, "m": self.m,
                "enabled_after": self.enabled_after}


def _next_weight(weights: dict[tuple[int, int], int]) -> int:
    return max(weights.values(), default=0) + 1


def revise(net: Network, event: TopologyEvent) -> Network:
    """The post-event network revision (pure; ``net`` is untouched).

    Validates the event, patches a copy of ``net`` through
    :meth:`Network.patched`, and probes connectivity only where the
    event can split the network: a removed edge's endpoints must still
    reach each other, a crashed node's former neighbors likewise.
    """
    adj = net.adjacency
    weights = net.weights if net.weighted else None

    if isinstance(event, EdgeAdd):
        for x in (event.u, event.v):
            if x not in adj:
                raise EventError(f"{event}: node {x} does not exist")
        if net.has_edge(event.u, event.v):
            raise EventError(f"{event}: edge already exists")
        w = None
        if weights is not None:
            w = event.weight if event.weight is not None \
                else _next_weight(weights)
            if w in weights.values():
                raise EventError(
                    f"{event}: weight {w} already used (weights are "
                    f"pairwise distinct constants)")
            w = int(w)
            if w in weights.values():
                raise ValueError("edge weights must be pairwise distinct")
            if w <= 0:
                raise ValueError("edge weights must be positive")
        return net.patched(add_edges={(event.u, event.v): w})
    if isinstance(event, EdgeRemove):
        if not net.has_edge(event.u, event.v):
            raise EventError(f"{event}: no such edge")
        new = net.patched(drop_edge=(event.u, event.v))
        if not new.connects((event.u, event.v)):
            raise EventError(
                f"{event}: removal disconnects the network (the "
                f"constructions assume a connected topology; "
                f"partition tolerance is future work)")
        return new
    if isinstance(event, NodeCrash):
        if event.node not in adj:
            raise EventError(f"{event}: node {event.node} does not exist")
        if net.n < 2:
            raise EventError(f"{event}: cannot crash the last node")
        new = net.patched(drop_node=event.node)
        if not new.connects(adj[event.node]):
            raise EventError(
                f"{event}: crash disconnects the network (node "
                f"{event.node} is a cut vertex; partition "
                f"tolerance is future work)")
        return new
    if isinstance(event, (NodeJoin, NodeRecover)):
        if event.node in adj:
            raise EventError(f"{event}: id {event.node} already in use")
        if not 1 <= event.node <= net.id_space:
            raise EventError(
                f"{event}: id {event.node} outside the identity space "
                f"{{1, ..., {net.id_space}}}")
        if net.n + 1 > net.n_bound:
            raise EventError(
                f"{event}: joining would exceed n_bound={net.n_bound} "
                f"(give the topology headroom — n_bound is the "
                f"incorruptible public bound the rules read)")
        missing = [a for a in event.edges if a not in adj]
        if missing:
            raise EventError(
                f"{event}: attachment endpoints {missing} do not exist")
        if not event.edges:
            # the Network constructor's refusal of an isolated node
            raise ValueError("network must be connected")
        w0 = _next_weight(weights) if weights is not None else None
        return net.patched(add_node=event.node, add_edges={
            (min(event.node, a), max(event.node, a)):
                None if w0 is None else w0 + k
            for k, a in enumerate(event.edges)})
    raise EventError(f"unknown topology event {event!r}")


def _touched(event: TopologyEvent, old_net: Network) -> tuple[int, ...]:
    """Surviving nodes whose neighborhood the event changed."""
    if isinstance(event, (EdgeAdd, EdgeRemove)):
        return tuple(sorted((event.u, event.v)))
    if isinstance(event, NodeCrash):
        return tuple(sorted(old_net.neighbors(event.node)))
    # join/recover: the joiner and its attachment points
    return tuple(sorted((event.node, *event.edges)))


def _refuse_non_simulator(sim: object) -> None:
    cls = type(sim).__name__
    if cls == "ShardedSimulator" or "sharding" in type(sim).__module__:
        raise ValueError(
            "topology events on a sharded run are not supported: the "
            "sharded engine exchanges halo registers keyed by a static "
            "partition, and a live topology change would corrupt "
            "shard-local halos (cross-shard events are future work).  "
            "Re-run single-process to apply churn.")
    raise TypeError(
        f"apply_event needs a repro.runtime.simulator.Simulator, "
        f"got {cls}")


def apply_event(sim: Simulator, event: TopologyEvent, *,
                rng: random.Random | None = None,
                check: bool = False) -> EventReport:
    """Rebind a running simulator to the event's network revision.

    ``rng`` feeds ``init="sampled"`` joiner registers (default: the
    simulator's own injected stream, like fault injection).  With
    ``check=True`` the incremental enabled set is cross-checked against
    a from-scratch rescan once the revision is bound — the event-boundary
    proof obligation — and a mismatch raises RuntimeError.

    Refuses sharded simulators (ValueError) and mid-round application
    (RuntimeError): an event lands between rounds, never inside one.
    """
    if not isinstance(sim, Simulator):
        _refuse_non_simulator(sim)
    if sim._pending is not None:
        raise RuntimeError(
            "cannot apply a topology event mid-round: the active round's "
            "pending set was computed against the old topology.  Apply "
            "events between run_round() calls.")

    old_net = sim.net
    protocol = sim.protocol
    new_net = revise(old_net, event)
    touched = _touched(event, old_net)

    rows = sim._state
    config = sim.config
    proposal = sim._proposal
    enabled = sim._enabled

    # ---- state carry-forward -----------------------------------------
    if isinstance(event, NodeCrash):
        v = event.node
        del rows[v]
        del config[v]
        del sim._nbr_rows[v]
        proposal.pop(v, None)
        sim._dirty.discard(v)
        if v in enabled._set:
            enabled._set.remove(v)
            del enabled._list[bisect_left(enabled._list, v)]

    # ---- schema / plane rebinding ------------------------------------
    new_spec = protocol.register_spec(new_net)
    new_schema = new_spec.schema()
    if tuple(new_schema.names) != tuple(sim.schema.names):
        raise EventError(
            f"{event}: register layout changed across the revision "
            f"({list(sim.schema.names)} -> {list(new_schema.names)}); "
            f"the dynamics engine carries rows forward positionally")
    sim.net = new_net
    sim.spec = new_spec
    sim.schema = new_schema
    sim._index = new_schema.index

    if isinstance(event, (NodeJoin, NodeRecover)):
        v = event.node
        if event.init == "sampled":
            sampler = rng if rng is not None else sim.rng
            state = new_spec.corrupt_state(new_net, v, sampler)
        else:
            state = new_spec.default_state(new_net, v)
        rows[v] = [state[name] for name in new_schema.names]
        config[v] = new_schema.view(rows[v])

    sim._all_nodes = list(new_net.nodes)
    sim._bulk_dirty = max(4, new_net.n // 4)

    # recompile the scalar rule path for the new binding, rebuilding the
    # neighbor rows of the touched nodes only.  Survivor rows are the
    # same list objects, so the rebuilt rows alias live state exactly as
    # construction did.
    sim._bind_rules(touched)

    # ---- protocol lifecycle hook -------------------------------------
    invalidate_all = bool(protocol.on_topology_event(old_net, new_net,
                                                     event))

    # ---- interrupt section (super-stabilization) ---------------------
    interrupt_writes = 0
    dirty = set(touched)
    irule = protocol.interrupt_step(new_schema)
    if irule is not None:
        for v in touched:
            delta = irule(new_net, config, v, rows[v], event)
            if not delta:
                continue
            row = rows[v]
            wrote = False
            for s, val in delta.items():
                if row[s] != val:
                    row[s] = val
                    wrote = True
            if wrote:
                interrupt_writes += 1
                dirty.update(new_net.neighbors(v))

    # ---- dirty-set accounting + proof obligation ---------------------
    if invalidate_all:
        sim._dirty_all = True
        sim._dirty.clear()
    else:
        sim._dirty.update(dirty)
    # stale cached proposals of vanished nodes can never be selected
    # (the enabled set no longer contains them); drop crashed entries
    # above, keep survivors — refresh re-proposes exactly the dirty ones.
    sim._sched_synced = False  # the daemon re-reads the enabled set

    enabled_after = len(sim.enabled_set())  # settles via _refresh
    if check:
        incremental = list(sim._enabled)
        rescan = sim.rescan_enabled()
        if incremental != rescan:
            raise RuntimeError(
                f"incremental enabled set diverged from rescan after "
                f"{event}: {incremental} != {rescan}")

    return EventReport(event=event, touched=touched,
                       interrupt_writes=interrupt_writes,
                       n=new_net.n, m=new_net.m,
                       enabled_after=enabled_after)
