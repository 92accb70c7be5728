"""Deterministic seeded churn schedules.

A :class:`ChurnSchedule` turns a seed into a stream of topology events
against an *evolving* network: every draw is made from sorted candidate
lists under one private :class:`random.Random`, so the same seed over
the same starting network yields a byte-identical event stream — the
determinism the trace round-trip tests diff.

Schedule kinds (the schedule grammar):

``edge-add`` / ``edge-remove`` / ``crash`` / ``join``
    single-kind streams (each event drawn from the kind's feasible
    candidates; ``None`` when exhausted);
``edge-flip``
    alternating remove/add — mobility-style link churn at constant
    density;
``crash-join``
    alternating crash/join — population churn with fresh identities;
``crash-recover``
    alternating crash/recover — the recovering node returns onto the
    surviving part of its remembered edges;
``mixed``
    a uniform draw among the feasible kinds each step.

Feasibility is validity under :func:`~repro.runtime.dynamics.apply.revise`:
removals and crashes are drawn only from edges/nodes whose removal keeps
the network connected, joins only while ``n_bound`` leaves headroom.
Both candidate lists come from one iterative Hopcroft–Tarjan DFS per
draw (:func:`_cut_structure`: the non-bridges and the non-cut vertices,
O(n + m)), and an edge-add draw indexes the sorted non-edges without
listing them (:class:`_NonEdges`), so no draw scans the graph once per
candidate.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from repro.graphs.network import Network
from repro.runtime.dynamics.apply import revise
from repro.runtime.dynamics.events import (
    EdgeAdd,
    EdgeRemove,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    TopologyEvent,
)

__all__ = ["SCHEDULE_KINDS", "ChurnSchedule", "materialize_schedule"]

SCHEDULE_KINDS: tuple[str, ...] = (
    "edge-add", "edge-remove", "crash", "join",
    "edge-flip", "crash-join", "crash-recover", "mixed",
)

#: attachment degree cap for joiners/recoverers without remembered edges
_MAX_ATTACH = 3


def _cut_structure(net: Network) -> tuple[set[tuple[int, int]], set[int]]:
    """Bridges and cut vertices of ``net`` in one O(n + m) pass.

    Hopcroft–Tarjan low-point DFS, run iteratively (an explicit stack of
    ``(node, parent, next-neighbor index)`` frames) so a long path does
    not hit the interpreter's recursion limit.  Tree edge ``(p, c)`` is a
    bridge iff ``low[c] > disc[p]``; a non-root ``p`` is a cut vertex iff
    some child has ``low[c] >= disc[p]``, a DFS root iff it has two or
    more children.
    """
    adj = net.adjacency
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[tuple[int, int]] = set()
    cuts: set[int] = set()
    for root in net.nodes:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        children = 0
        stack = [(root, 0, 0)]  # identities are positive: 0 is "no parent"
        while stack:
            u, parent, i = stack[-1]
            nbrs = adj[u]
            if i < len(nbrs):
                stack[-1] = (u, parent, i + 1)
                w = nbrs[i]
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, 0))
                elif w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
                continue
            stack.pop()
            if not parent:
                continue
            if low[u] < low[parent]:
                low[parent] = low[u]
            if low[u] > disc[parent]:
                bridges.add((u, parent) if u < parent else (parent, u))
            if parent == root:
                children += 1
            elif low[u] >= disc[parent]:
                cuts.add(parent)
        if children > 1:
            cuts.add(root)
    return bridges, cuts


def _removable_edges(net: Network) -> list[tuple[int, int]]:
    """Edges whose removal keeps the network connected: the non-bridges
    (sorted)."""
    bridges, _ = _cut_structure(net)
    return [e for e in net.edges if e not in bridges]


def _crashable_nodes(net: Network) -> list[int]:
    """Non-cut vertices (sorted); their crash keeps the rest connected."""
    if net.n < 2:
        return []
    _, cuts = _cut_structure(net)
    return [v for v in net.nodes if v not in cuts]


class _NonEdges:
    """``sorted(net.non_edges())`` as an indexed view, never materialised.

    ``len`` is n(n-1)/2 - m; item ``k`` walks the sorted nodes, skipping
    each node's pairs by count, then steps over the larger neighbors of
    the row's node — O(n log n) per item instead of O(n^2) for the list.
    """

    def __init__(self, net: Network) -> None:
        self._nodes = net.nodes
        self._adj = net.adjacency
        n = len(self._nodes)
        self._len = n * (n - 1) // 2 - net.m

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self._len:
            raise IndexError(k)
        nodes = self._nodes
        n = len(nodes)
        for i, u in enumerate(nodes):
            nbrs = self._adj[u]
            above = bisect_right(nbrs, u)  # nbrs[above:] are the pairs' edges
            row = n - 1 - i - (len(nbrs) - above)
            if k >= row:
                k -= row
                continue
            j = i + 1 + k
            for w in nbrs[above:]:
                if bisect_left(nodes, w) > j:
                    break
                j += 1
            return (u, nodes[j])
        raise AssertionError("unreachable: k < len")


class ChurnSchedule:
    """A seeded generator of feasible events against an evolving network.

    :meth:`next_event` draws one event valid on the network it is shown
    (callers apply it before asking for the next); alternating kinds
    keep their own phase latch, and ``crash-recover`` remembers each
    crashed node's edges so recovery restores the surviving part.
    """

    def __init__(self, kind: str, seed: int) -> None:
        if kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {kind!r} "
                             f"(known: {', '.join(SCHEDULE_KINDS)})")
        self.kind = kind
        self.seed = seed
        self._rng = random.Random(seed)
        self._phase = 0  # alternating-kind latch
        #: crashed node -> its edge endpoints at crash time
        self._crashed: dict[int, tuple[int, ...]] = {}

    # -- single-kind draws ---------------------------------------------

    def _draw_edge_add(self, net: Network) -> EdgeAdd | None:
        candidates = _NonEdges(net)
        if not candidates:
            return None
        u, v = self._rng.choice(candidates)
        return EdgeAdd(u, v)

    def _draw_edge_remove(self, net: Network) -> EdgeRemove | None:
        candidates = _removable_edges(net)
        if not candidates:
            return None
        u, v = self._rng.choice(candidates)
        return EdgeRemove(u, v)

    def _draw_crash(self, net: Network) -> NodeCrash | None:
        candidates = _crashable_nodes(net)
        if not candidates:
            return None
        v = self._rng.choice(candidates)
        self._crashed[v] = net.neighbors(v)
        return NodeCrash(v)

    def _free_id(self, net: Network) -> int | None:
        used = set(net.nodes) | set(self._crashed)
        for i in range(1, net.id_space + 1):
            if i not in used:
                return i
        return None

    def _draw_join(self, net: Network) -> NodeJoin | None:
        if net.n + 1 > net.n_bound:
            return None
        node = self._free_id(net)
        if node is None:
            return None
        k = self._rng.randint(1, min(_MAX_ATTACH, net.n))
        anchors = sorted(self._rng.sample(sorted(net.nodes), k))
        return NodeJoin(node, tuple(anchors), init="sampled")

    def _draw_recover(self, net: Network) -> NodeRecover | None:
        if net.n + 1 > net.n_bound:
            return None
        live = set(net.nodes)
        ready = sorted(v for v, edges in self._crashed.items()
                       if any(a in live for a in edges))
        if not ready:
            return None
        v = ready[0]  # oldest-id-first: deterministic
        edges = tuple(a for a in self._crashed.pop(v) if a in live)
        return NodeRecover(v, edges, init="bottom")

    # -- the stream ------------------------------------------------------

    def next_event(self, net: Network) -> TopologyEvent | None:
        """One feasible event against ``net``, or None when exhausted."""
        kind = self.kind
        if kind == "edge-add":
            return self._draw_edge_add(net)
        if kind == "edge-remove":
            return self._draw_edge_remove(net)
        if kind == "crash":
            return self._draw_crash(net)
        if kind == "join":
            return self._draw_join(net)
        if kind in ("edge-flip", "crash-join", "crash-recover"):
            first, second = {
                "edge-flip": (self._draw_edge_remove, self._draw_edge_add),
                "crash-join": (self._draw_crash, self._draw_join),
                "crash-recover": (self._draw_crash, self._draw_recover),
            }[kind]
            draw = first if self._phase == 0 else second
            ev = draw(net)
            if ev is None:  # this phase exhausted: try the other one
                other = second if self._phase == 0 else first
                ev = other(net)
                if ev is not None:
                    self._phase ^= 1
            self._phase ^= 1
            return ev
        # mixed: uniform over the feasible kinds, in a fixed draw order
        draws = [("edge-add", self._draw_edge_add),
                 ("edge-remove", self._draw_edge_remove),
                 ("crash", self._draw_crash),
                 ("join", self._draw_join)]
        order = list(range(len(draws)))
        self._rng.shuffle(order)
        for i in order:
            ev = draws[i][1](net)
            if ev is not None:
                return ev
        return None


def materialize_schedule(net: Network, *, kind: str, count: int,
                         seed: int) -> list[TopologyEvent]:
    """The first ``count`` events of a schedule, evolved through
    :func:`~repro.runtime.dynamics.apply.revise` only (no simulator) —
    the pure form the determinism tests serialize and diff."""
    sched = ChurnSchedule(kind, seed)
    events: list[TopologyEvent] = []
    current = net
    for _ in range(count):
        ev = sched.next_event(current)
        if ev is None:
            break
        current = revise(current, ev)
        events.append(ev)
    return events
