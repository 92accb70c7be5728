"""The communication network of the state model (Section II-A of the paper).

A :class:`Network` is a simple connected graph ``G = (V, E)`` whose nodes are
processes.  Following the paper:

* every node has a distinct, incorruptible identity ``ID(v)`` drawn from
  ``{1, ..., n^c}`` for a constant ``c >= 1``;
* in weighted instances, every node knows the (incorruptible, pairwise
  distinct) weights of its incident edges, each storable on O(log n) bits;
* nodes communicate only with their neighbors, by reading their registers.

The class is deliberately immutable: protocols never mutate the graph, they
only read it.  Trees under construction live in node *registers*, not here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Mapping

from repro._bits import bits_for_id

__all__ = ["Network", "UWEdge"]


def UWEdge(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) form of an undirected edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


class Network:
    """An immutable simple connected graph with identities and edge weights.

    Parameters
    ----------
    node_ids:
        Distinct positive node identities.
    edges:
        Iterable of undirected edges ``(u, v)`` between identities.
    weights:
        Optional mapping from canonical edges to pairwise-distinct positive
        weights.  When omitted the network is unweighted; protocols that
        need weights raise if asked for one.
    id_space:
        Upper bound of the identity space ``{1, ..., id_space}``; defaults to
        ``n**2`` (the paper's ``n^c`` with ``c = 2``), raised to
        ``max(node_ids)`` if identities exceed it.
    n_bound:
        Public upper bound N >= n on the network size, known to every node
        (used to bound distance/size counters; the classical assumption for
        flushing fake roots).  Defaults to ``n``.
    check_connected:
        When True (the default) the constructor rejects disconnected
        graphs, per the paper's model.  Shard-local subgraphs (a shard's
        owned nodes plus their 1-hop halo) may legitimately be
        disconnected; the sharding runtime passes False and carries the
        *global* ``id_space``/``n_bound`` so rule semantics are unchanged.
    """

    __slots__ = (
        "_nodes",
        "_edges",
        "_adj",
        "_adj_sets",
        "_weights",
        "_id_space",
        "_n_bound",
    )

    def __init__(
        self,
        node_ids: Iterable[int],
        edges: Iterable[tuple[int, int]],
        weights: Mapping[tuple[int, int], int] | None = None,
        id_space: int | None = None,
        n_bound: int | None = None,
        check_connected: bool = True,
    ) -> None:
        self._nodes: tuple[int, ...] = tuple(sorted(node_ids))
        if len(set(self._nodes)) != len(self._nodes):
            raise ValueError("node identities must be distinct")
        if any(i <= 0 for i in self._nodes):
            raise ValueError("node identities must be positive")
        node_set = set(self._nodes)

        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) uses an unknown node id")
            canon.add(UWEdge(u, v))
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))

        # precomputed neighbor arrays: sorted tuples (deterministic
        # iteration order) plus frozensets (O(1) membership), both built
        # eagerly — the engine's hot loops index these mappings directly
        adj_build: dict[int, list[int]] = {u: [] for u in self._nodes}
        for u, v in self._edges:
            adj_build[u].append(v)
            adj_build[v].append(u)
        self._adj: dict[int, tuple[int, ...]] = {
            u: tuple(sorted(adj_build[u])) for u in self._nodes}
        self._adj_sets: dict[int, frozenset[int]] = {
            u: frozenset(nbrs) for u, nbrs in self._adj.items()}

        self._weights: dict[tuple[int, int], int] | None = None
        if weights is not None:
            w = {UWEdge(u, v): int(wt) for (u, v), wt in weights.items()}
            missing = set(self._edges) - set(w)
            if missing:
                raise ValueError(f"missing weights for edges: {sorted(missing)}")
            if len(set(w.values())) != len(w):
                raise ValueError("edge weights must be pairwise distinct")
            if any(wt <= 0 for wt in w.values()):
                raise ValueError("edge weights must be positive")
            self._weights = {e: w[e] for e in self._edges}

        n = len(self._nodes)
        default_space = max(n * n, max(self._nodes, default=1))
        self._id_space = max(id_space or default_space, max(self._nodes, default=1))
        self._n_bound = n_bound if n_bound is not None else n
        if self._n_bound < n:
            raise ValueError(f"n_bound {self._n_bound} smaller than n = {n}")

        if not self._nodes:
            raise ValueError("network must have at least one node")
        if check_connected:
            self._check_connected()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        """All node identities, sorted ascending."""
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All canonical undirected edges, sorted."""
        return self._edges

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def id_space(self) -> int:
        """Size of the identity space {1, ..., id_space}."""
        return self._id_space

    @property
    def n_bound(self) -> int:
        """Public upper bound N >= n known to all nodes."""
        return self._n_bound

    @property
    def weighted(self) -> bool:
        return self._weights is not None

    @property
    def min_id(self) -> int:
        """The smallest identity (the eventual elected root)."""
        return self._nodes[0]

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbor identities of ``u``."""
        return self._adj[u]

    def neighbor_set(self, u: int) -> frozenset[int]:
        """Neighbor identities of ``u`` as a frozenset (O(1) membership).

        Precomputed at construction; the engine's hot path uses this for
        neighbor-validation instead of scanning the sorted tuple.
        """
        return self._adj_sets[u]

    @property
    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """The precomputed node -> sorted-neighbor-tuple mapping.

        Engine-facing: indexing this mapping is a single C-level dict
        lookup, with no method-call frame.  Treat as read-only.
        """
        return self._adj

    @property
    def adjacency_sets(self) -> Mapping[int, frozenset[int]]:
        """The precomputed node -> neighbor-frozenset mapping (read-only)."""
        return self._adj_sets

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        return max(len(self._adj[u]) for u in self._nodes)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets.get(u, ())

    def weight(self, u: int, v: int) -> int:
        """Weight of edge {u, v}; raises on unweighted networks."""
        if self._weights is None:
            raise ValueError("network is unweighted")
        e = UWEdge(u, v)
        if e not in self._weights:
            raise KeyError(f"no edge {e}")
        return self._weights[e]

    def weight_of(self, edge: tuple[int, int]) -> int:
        return self.weight(edge[0], edge[1])

    @property
    def weights(self) -> dict[tuple[int, int], int]:
        if self._weights is None:
            raise ValueError("network is unweighted")
        return dict(self._weights)

    def weight_space(self) -> int:
        """Upper bound of the weight domain (for bit accounting)."""
        if self._weights is None:
            return 1
        return max(self._weights.values())

    # ------------------------------------------------------------------
    # bit accounting for incorruptible constants
    # ------------------------------------------------------------------

    def id_bits(self) -> int:
        """Bits for one identity (register fields storing ids cost this)."""
        return bits_for_id(self._id_space)

    # ------------------------------------------------------------------
    # graph algorithms used by oracles and verifiers (not by protocols)
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> dict[int, int]:
        """Hop distances from ``source`` to every node."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def eccentricity(self, source: int) -> int:
        return max(self.bfs_distances(source).values())

    def diameter(self) -> int:
        return max(self.eccentricity(u) for u in self._nodes)

    def is_connected_subset(self, subset: Iterable[int]) -> bool:
        """Whether the induced subgraph on ``subset`` is connected."""
        sub = set(subset)
        if not sub:
            return True
        start = next(iter(sub))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v in sub and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen == sub

    def connects(self, nodes: Iterable[int]) -> bool:
        """Whether ``nodes`` are mutually reachable.

        A breadth-first search grows from every given node at once, level
        by level, merging searches that meet, and stops as soon as one
        search remains: a cheap connectivity probe around a local change
        (two balls of half the connecting path's length for two nodes).
        It costs the whole component only when it fails.
        """
        owner = {v: i for i, v in enumerate(nodes)}  # node -> search id
        merged = list(range(len(owner)))  # union-find over search ids

        def find(i: int) -> int:
            while merged[i] != i:
                merged[i] = i = merged[merged[i]]
            return i

        searches = len(owner)
        frontier = list(owner)
        adj = self._adj
        while searches > 1 and frontier:
            nxt: list[int] = []
            for u in frontier:
                a = owner[u]
                for w in adj[u]:
                    b = owner.get(w)
                    if b is None:
                        owner[w] = a
                        nxt.append(w)
                        continue
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        merged[ra] = rb
                        searches -= 1
                        if searches == 1:
                            return True
            frontier = nxt
        return searches <= 1

    def total_weight(self, edges: Iterable[tuple[int, int]]) -> int:
        return sum(self.weight_of(e) for e in edges)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_connected(self) -> None:
        if not self._nodes:
            raise ValueError("network must have at least one node")
        seen = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(self._nodes):
            raise ValueError("network must be connected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted" if self.weighted else "unweighted"
        return f"Network(n={self.n}, m={self.m}, {kind})"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def with_distinct_weights(
        node_ids: Iterable[int],
        edges: Iterable[tuple[int, int]],
        rng=None,
        scale: int = 1,
        **kwargs,
    ) -> "Network":
        """Build a weighted network with random distinct weights.

        Weights are a random permutation of ``{1, ..., m}`` (shuffled when
        ``rng`` is given), so they are pairwise distinct *by construction*,
        matching the paper's w.l.o.g. distinct-weights assumption.  Every
        weight is multiplied by ``scale`` (default 1), which lets tests
        widen the weight domain without ever introducing ties.
        """
        if not isinstance(scale, int) or scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale!r}")
        edge_list = sorted({UWEdge(u, v) for u, v in edges})
        m = len(edge_list)
        perm = list(range(1, m + 1))
        if rng is not None:
            rng.shuffle(perm)
        weights = {e: w * scale for e, w in zip(edge_list, perm)}
        return Network(node_ids, edge_list, weights=weights, **kwargs)

    def reweighted(self, weights: Mapping[tuple[int, int], int]) -> "Network":
        """Same topology with new distinct weights."""
        return Network(
            self._nodes,
            self._edges,
            weights=weights,
            id_space=self._id_space,
            n_bound=self._n_bound,
        )

    def patched(
        self,
        *,
        add_node: int | None = None,
        drop_node: int | None = None,
        add_edges: Mapping[tuple[int, int], int | None] | None = None,
        drop_edge: tuple[int, int] | None = None,
    ) -> "Network":
        """This network with one node and a few edges changed, unchecked.

        The patching half of :func:`repro.runtime.dynamics.revise`, which
        validates the change first (endpoints exist, edges canonical and
        new or present, weights fresh) and probes connectivity after; this
        method checks nothing.  ``add_edges`` maps each new canonical edge
        to its weight (ignored on unweighted networks); ``drop_node`` takes
        its incident edges with it.  The tables are C-level copies of this
        network's, only the touched nodes' neighbor rows are re-sorted, and
        the edge tuple is patched by bisection, so the Python work is
        O(degree of the change).  ``self`` is left untouched.
        """
        nodes = self._nodes
        adj = dict(self._adj)
        adj_sets = dict(self._adj_sets)
        edges = list(self._edges)
        weights = None if self._weights is None else dict(self._weights)
        dropped = [] if drop_edge is None else [drop_edge]
        if drop_node is not None:
            i = bisect_left(nodes, drop_node)
            nodes = nodes[:i] + nodes[i + 1:]
            dropped += [UWEdge(drop_node, w) for w in adj.pop(drop_node)]
            del adj_sets[drop_node]
        if add_node is not None:
            i = bisect_left(nodes, add_node)
            nodes = nodes[:i] + (add_node,) + nodes[i:]
            adj[add_node] = ()
            adj_sets[add_node] = frozenset()
        # the touched nodes' new neighbor sets
        rows: dict[int, set[int]] = {}
        for e in dropped:
            del edges[bisect_left(edges, e)]
            if weights is not None:
                del weights[e]
            for a, b in (e, e[::-1]):
                if a != drop_node:
                    rows.setdefault(a, set(adj_sets[a])).discard(b)
        for e, wt in (add_edges or {}).items():
            insort(edges, e)
            if weights is not None:
                weights[e] = wt
            for a, b in (e, e[::-1]):
                rows.setdefault(a, set(adj_sets[a])).add(b)
        for x, row in rows.items():
            adj[x] = tuple(sorted(row))  # ascending, as the constructor's
            adj_sets[x] = frozenset(row)

        new = Network.__new__(Network)
        new._nodes = nodes
        new._edges = tuple(edges)
        new._adj = adj
        new._adj_sets = adj_sets
        new._weights = weights
        new._id_space = self._id_space
        new._n_bound = self._n_bound
        return new

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """All node pairs that are *not* edges (useful for tests)."""
        adj_sets = self._adj_sets
        for u, v in itertools.combinations(self._nodes, 2):
            if v not in adj_sets[u]:
                yield (u, v)
