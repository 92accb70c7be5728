"""Rooted spanning trees, fundamental cycles, and edge swaps.

This is the *sequential* tree algebra underpinning the whole reproduction:
the paper's trees are distributedly encoded by parent pointers (Section
II-B), and its local-search framework lives on two operations:

* ``fundamental_cycle(e)`` — the cycle formed by a non-tree edge ``e`` and
  the tree path between its endpoints (footnote 2 of the paper);
* ``swap(e, f)`` — the transformation ``T <- T + e - f`` with ``f`` on the
  fundamental cycle of ``e`` (Algorithm 1, instruction 4).

The distributed protocols manipulate the same objects through registers;
the verifiers and tests use this module as the oracle.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping

from repro.graphs.network import Network, UWEdge

__all__ = [
    "RootedTree",
    "bfs_tree",
    "dfs_tree",
    "random_spanning_tree",
    "tree_from_edges",
]


class RootedTree:
    """A rooted spanning tree of a network, encoded by parent pointers.

    Invariants (checked at construction): exactly one root with parent
    ``None``; every other node's parent is a graph neighbor; following
    parents always reaches the root; all of the network's nodes appear.
    """

    def __init__(self, net: Network, parent: Mapping[int, int | None]) -> None:
        self.net = net
        self._parent: dict[int, int | None] = {}
        roots = [v for v in net.nodes if parent.get(v) is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {sorted(roots)}")
        self._root = roots[0]
        for v in net.nodes:
            p = parent.get(v)
            if v == self._root:
                self._parent[v] = None
                continue
            if p is None or p not in net.neighbors(v):
                raise ValueError(f"parent of {v} is {p}, not a neighbor")
            self._parent[v] = p
        self._children: dict[int, tuple[int, ...]] = {v: () for v in net.nodes}
        kids: dict[int, list[int]] = {v: [] for v in net.nodes}
        for v, p in self._parent.items():
            if p is not None:
                kids[p].append(v)
        for v in net.nodes:
            self._children[v] = tuple(sorted(kids[v]))
        self._depth = self._compute_depths()
        self._edge_set = {UWEdge(v, p) for v, p in self._parent.items() if p is not None}

    # ------------------------------------------------------------------
    # construction-time validation
    # ------------------------------------------------------------------

    def _compute_depths(self) -> dict[int, int]:
        depth = {self._root: 0}
        frontier = [self._root]
        while frontier:
            nxt = []
            for u in frontier:
                for c in self._children[u]:
                    depth[c] = depth[u] + 1
                    nxt.append(c)
            frontier = nxt
        if len(depth) != self.net.n:
            unreachable = sorted(set(self.net.nodes) - set(depth))
            raise ValueError(f"parent map is not a spanning tree; "
                             f"unreachable from root: {unreachable}")
        return depth

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    def parent(self, v: int) -> int | None:
        return self._parent[v]

    @property
    def parent_map(self) -> dict[int, int | None]:
        return dict(self._parent)

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def depth(self, v: int) -> int:
        return self._depth[v]

    def height(self) -> int:
        return max(self._depth.values())

    def edges(self) -> set[tuple[int, int]]:
        """The tree's undirected edge set (n - 1 canonical edges)."""
        return set(self._edge_set)

    def has_edge(self, u: int, v: int) -> bool:
        return UWEdge(u, v) in self._edge_set

    def tree_neighbors(self, v: int) -> tuple[int, ...]:
        p = self._parent[v]
        if p is None:
            return self._children[v]
        return tuple(sorted(self._children[v] + (p,)))

    def degree(self, v: int) -> int:
        """Degree of v *in the tree* (parent plus children)."""
        return len(self._children[v]) + (0 if self._parent[v] is None else 1)

    def max_degree(self) -> int:
        return max(self.degree(v) for v in self.net.nodes)

    def subtree_sizes(self) -> dict[int, int]:
        """Size of the subtree rooted at each node (the `s` labels)."""
        size = {v: 1 for v in self.net.nodes}
        for v in sorted(self.net.nodes, key=lambda u: -self._depth[u]):
            p = self._parent[v]
            if p is not None:
                size[p] += size[v]
        return size

    def subtree_nodes(self, v: int) -> set[int]:
        out = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self._children[u]:
                out.add(c)
                stack.append(c)
        return out

    def path_to_root(self, v: int) -> list[int]:
        """[v, parent(v), ..., root]."""
        path = [v]
        while self._parent[path[-1]] is not None:
            path.append(self._parent[path[-1]])
        return path

    def is_ancestor(self, a: int, v: int) -> bool:
        """Whether ``a`` lies on the tree path from ``v`` to the root."""
        while v is not None:
            if v == a:
                return True
            v = self._parent[v]
        return False

    def nca(self, u: int, v: int) -> int:
        """Nearest common ancestor (oracle implementation)."""
        du, dv = self._depth[u], self._depth[v]
        while du > dv:
            u = self._parent[u]
            du -= 1
        while dv > du:
            v = self._parent[v]
            dv -= 1
        while u != v:
            u = self._parent[u]
            v = self._parent[v]
        return u

    def tree_path(self, u: int, v: int) -> list[int]:
        """The simple tree path from u to v (inclusive)."""
        w = self.nca(u, v)
        up = []
        x = u
        while x != w:
            up.append(x)
            x = self._parent[x]
        down = []
        x = v
        while x != w:
            down.append(x)
            x = self._parent[x]
        return up + [w] + list(reversed(down))

    # ------------------------------------------------------------------
    # fundamental cycles and swaps
    # ------------------------------------------------------------------

    def non_tree_edges(self) -> list[tuple[int, int]]:
        return [e for e in self.net.edges if e not in self._edge_set]

    def fundamental_cycle(self, e: tuple[int, int]) -> list[int]:
        """Nodes of the fundamental cycle of non-tree edge ``e`` (in path
        order from one endpoint to the other; the closing edge is ``e``)."""
        u, v = e
        if self.has_edge(u, v):
            raise ValueError(f"{e} is a tree edge; fundamental cycles need non-tree edges")
        if not self.net.has_edge(u, v):
            raise ValueError(f"{e} is not a graph edge")
        return self.tree_path(u, v)

    def fundamental_cycle_edges(self, e: tuple[int, int]) -> list[tuple[int, int]]:
        """Tree edges on the fundamental cycle of ``e``."""
        path = self.fundamental_cycle(e)
        return [UWEdge(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def swap(self, e: tuple[int, int], f: tuple[int, int]) -> "RootedTree":
        """``T + e - f`` (Algorithm 1, instruction 4), keeping the same root.

        ``e`` must be a non-tree edge and ``f`` a tree edge on the
        fundamental cycle of ``e``; the result is again a spanning tree.
        The detached component is re-rooted along the path from ``e``'s
        endpoint inside it, mirroring the chain of local switches the
        distributed protocol performs (Section IV, Fig. 1a).
        """
        e = UWEdge(*e)
        f = UWEdge(*f)
        if f not in set(self.fundamental_cycle_edges(e)):
            raise ValueError(f"{f} is not on the fundamental cycle of {e}")
        parent = dict(self._parent)
        # cut f = {x, p(x)}: identify the child side
        fx, fy = f
        x = fx if parent[fx] == fy else fy
        detached = self.subtree_nodes(x)
        a, b = e
        inside = a if a in detached else b
        outside = b if inside == a else a
        if outside in detached:
            raise AssertionError("both endpoints of e inside the detached part")
        # re-root the detached subtree at `inside`: reverse parents up to x
        chain = []
        y = inside
        while y != x:
            chain.append(y)
            y = parent[y]
        chain.append(x)
        for i in range(len(chain) - 1):
            parent[chain[i + 1]] = chain[i]
        parent[inside] = outside
        return RootedTree(self.net, parent)

    def rerooted(self, new_root: int) -> "RootedTree":
        """The same tree with parents re-oriented toward ``new_root``."""
        parent = dict(self._parent)
        chain = self.path_to_root(new_root)
        for i in range(len(chain) - 1):
            parent[chain[i + 1]] = chain[i]
        parent[new_root] = None
        return RootedTree(self.net, parent)

    def total_weight(self) -> int:
        return self.net.total_weight(self._edge_set)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._parent == other._parent and self.net is other.net

    def __hash__(self) -> int:
        return hash(tuple(sorted((v, p) for v, p in self._parent.items())))

    def same_edges(self, other: "RootedTree") -> bool:
        """Equality as unrooted trees."""
        return self._edge_set == other._edge_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootedTree(root={self._root}, n={self.net.n})"


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def bfs_tree(net: Network, root: int | None = None) -> RootedTree:
    """A breadth-first spanning tree (parents on shortest paths)."""
    r = net.min_id if root is None else root
    parent: dict[int, int | None] = {r: None}
    frontier = [r]
    while frontier:
        nxt = []
        for u in frontier:
            for v in net.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return RootedTree(net, parent)


def dfs_tree(net: Network, root: int | None = None) -> RootedTree:
    """A depth-first spanning tree (long paths — e.g. a Hamiltonian path in
    K_n — making it a good stress input for the relabeling waves)."""
    r = net.min_id if root is None else root
    parent: dict[int, int | None] = {}
    stack: list[tuple[int, int | None]] = [(r, None)]
    while stack:
        u, p = stack.pop()
        if u in parent:
            continue
        parent[u] = p
        for v in reversed(net.neighbors(u)):
            if v not in parent:
                stack.append((v, u))
    return RootedTree(net, parent)


def random_spanning_tree(net: Network, seed: int = 0,
                         root: int | None = None) -> RootedTree:
    """A random spanning tree via randomized DFS order."""
    rng = random.Random(seed)
    r = (root if root is not None else rng.choice(list(net.nodes)))
    parent: dict[int, int | None] = {r: None}
    stack = [r]
    while stack:
        u = stack.pop()
        nbrs = list(net.neighbors(u))
        rng.shuffle(nbrs)
        for v in nbrs:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    return RootedTree(net, parent)


def tree_from_edges(net: Network, edges: Iterable[tuple[int, int]],
                    root: int) -> RootedTree:
    """Orient an undirected spanning edge set into a RootedTree."""
    adj: dict[int, list[int]] = {v: [] for v in net.nodes}
    count = 0
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    if count != net.n - 1:
        raise ValueError(f"expected {net.n - 1} edges, got {count}")
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    return RootedTree(net, parent)
