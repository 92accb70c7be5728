"""Network partitioning for shard-parallel execution.

A :class:`ShardPlan` assigns every node to exactly one *owning* shard.
Ownership is what the round driver distributes: a shard evaluates and
writes only its owned nodes, reads its 1-hop halo, and ships the rows of
its owned *frontier* (owned nodes with a neighbor owned elsewhere) to the
shards holding them as halo at every round edge.  The plan therefore
determines both the per-round compute balance (shard sizes) and the
per-round communication volume (cut size / boundary widths) — which is
why ``python -m repro shard plan`` prints all three and why campaign
records carry the plan's fingerprint.  A plan is never persisted:
:func:`plan_partition` is deterministic, so ``(topology, k)`` *is* the
plan.

The partitioner is deterministic: BFS order from the minimum identity,
cut into k contiguous chunks.  BFS discovery order keeps chunks
spatially coherent, so structured topologies (grids, rings, trees) get
cuts close to the geometric optimum without a heavyweight partitioning
library.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["ShardPlan", "plan_partition"]


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One immutable node -> shard assignment with its quality metrics."""

    #: always ``"bfs"``; kept because it is hashed into the fingerprint,
    #: so dropping it would change every recorded ``plan_fingerprint``
    method: str
    k: int
    #: per-shard owned nodes, each tuple sorted ascending
    shards: tuple[tuple[int, ...], ...]
    #: edges whose endpoints live on different shards
    cut_edges: int
    #: per-shard count of owned frontier nodes (rows shipped per round
    #: in the worst case)
    boundary: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.shards)

    @property
    def balance(self) -> float:
        """max shard size / mean shard size (1.0 = perfectly balanced)."""
        sizes = [len(s) for s in self.shards]
        return max(sizes) / (sum(sizes) / len(sizes))

    def owner_of(self) -> dict[int, int]:
        """The node -> owning-shard lookup table."""
        owner: dict[int, int] = {}
        for i, nodes in enumerate(self.shards):
            for v in nodes:
                owner[v] = i
        return owner

    @property
    def fingerprint(self) -> str:
        """Digest of the full assignment — campaign records carry it."""
        h = hashlib.sha256()
        h.update(f"{self.method}|{self.k}|".encode())
        for nodes in self.shards:
            h.update(",".join(map(str, nodes)).encode())
            h.update(b";")
        return h.hexdigest()[:16]

    def describe(self) -> dict[str, object]:
        """The summary the ``shard plan`` CLI prints."""
        sizes = [len(s) for s in self.shards]
        return {
            "n": self.n,
            "sizes": sizes,
            "balance": round(self.balance, 4),
            "cut_edges": self.cut_edges,
            "boundary": list(self.boundary),
            "max_boundary": max(self.boundary),
            "fingerprint": self.fingerprint,
        }


def _bfs_order(topo) -> list[int]:
    """Deterministic BFS discovery order from the minimum identity.

    Sorted-neighbor iteration (both :class:`Network` and implicit
    topologies return sorted tuples) makes the order a pure function of
    the graph.  Components beyond the first — shard-locality never
    requires global connectivity — are appended in ascending-id order,
    each swept from its own minimum.
    """
    order: list[int] = []
    seen: set[int] = set()
    for start in topo.nodes:
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        order.append(start)
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in topo.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        order.append(v)
                        nxt.append(v)
            frontier = nxt
    return order


def _chunk(order: list[int], k: int) -> tuple[tuple[int, ...], ...]:
    """Cut ``order`` into k contiguous chunks, sizes differing by <= 1."""
    n = len(order)
    base, extra = divmod(n, k)
    shards: list[tuple[int, ...]] = []
    at = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        shards.append(tuple(sorted(order[at:at + size])))
        at += size
    return tuple(shards)


def plan_partition(topo, k: int) -> ShardPlan:
    """Partition ``topo`` (a Network or an implicit topology) k ways."""
    if k < 1:
        raise ValueError(f"shard count must be >= 1, got {k}")
    if k > topo.n:
        raise ValueError(f"cannot cut {topo.n} nodes into {k} shards")
    order = _bfs_order(topo)
    shards = _chunk(order, k)

    owner: dict[int, int] = {}
    for i, nodes in enumerate(shards):
        for v in nodes:
            owner[v] = i
    cut = 0
    boundary = [0] * k
    for i, nodes in enumerate(shards):
        for v in nodes:
            external = False
            for u in topo.neighbors(v):
                if owner[u] != i:
                    external = True
                    if v < u:
                        cut += 1
            if external:
                boundary[i] += 1

    return ShardPlan(method="bfs", k=k, shards=shards,
                     cut_edges=cut, boundary=tuple(boundary))
