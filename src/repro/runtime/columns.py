"""Typed per-field columns + CSR adjacency: the array-native state plane.

PR 5 turned every register into a positionally-indexed *slot row*.  This
module turns the rows 90 degrees: a :class:`ColumnStore` holds one typed
``int64`` array per field over *all* nodes, plus the network's adjacency
flattened once into CSR arrays (``nbr_offsets`` / ``nbr_index``).  A
protocol that opts in through :meth:`~repro.runtime.protocol.Protocol.
vector_step` evaluates a whole all-dirty refresh (a synchronous round, a
mass fault) as bulk array operations instead of per-node Python calls.

Contract with the engine
------------------------

* **Rows stay primary.**  The slot rows remain the single source of
  truth; ``SlotState`` views, name-keyed ``overwrite``, faults and traces
  are untouched.  The column store is an *evaluation cache*: any engine
  write just drops :attr:`~ColumnStore.fresh`, and the next vector
  refresh re-encodes from the rows with ``sync()`` — lazily, so runs
  that never vectorize (central daemons) never pay for the columns.
* **Strict encoding.**  A cell encodes iff its value is exactly an
  ``int`` (``bool`` is rejected: ``repr(True) != repr(1)`` would corrupt
  golden hashes and digest content) strictly inside the signed-64 range,
  or the register null :data:`~repro.runtime.registers.NONE`, which maps
  to the reserved :data:`NONE_SENTINEL` (``-2**63``).  A field holding
  anything else is marked invalid for this sync; vector rules that need
  that column decline, and the engine falls back to the bit-identical
  scalar path.
* **numpy only.**  The store exists only where ``numpy`` is importable
  and not disabled through the ``REPRO_NO_NUMPY`` environment variable
  (the CI leg that emulates a numpy-less host).  Elsewhere the simulator
  builds no store and runs the scalar slot rule, which the contract
  above already requires to be bit-identical.
* **Enabled-set diff.**  :func:`enabled_diff` merges a vector refresh's
  new enabled set with the engine's previous one, so the engine's
  bookkeeping after a vectorized refresh is one merge-diff instead of
  per-node bisection.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

from repro.graphs.network import Network
from repro.runtime.registers import NONE
from repro.runtime.schema import StateSchema

__all__ = ["ColumnStore", "NONE_SENTINEL", "enabled_diff",
           "numpy_or_none"]

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Encoded form of :data:`~repro.runtime.registers.NONE`.  ``-2**63`` is
#: excluded from the integer domain (strict ``>`` below), so the decode
#: direction is unambiguous.
NONE_SENTINEL = _INT64_MIN


def numpy_or_none():
    """The numpy module, or None (missing, or disabled through the
    ``REPRO_NO_NUMPY`` environment variable)."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class ColumnStore:
    """Per-field typed columns over all nodes of one network.

    Built once per ``(protocol, network)`` binding by the simulator when
    the protocol advertises a :meth:`~repro.runtime.protocol.Protocol.
    vector_step` rule: at construction, and after a topology event at the
    first all-dirty refresh on the revised network
    (:meth:`~repro.runtime.simulator.Simulator._bind_columns`).  Node identities are mapped to dense *positions*
    in ascending-id order (matching the engine's deterministic item
    order), and the adjacency is flattened into CSR form:

    ``nbr_offsets[i] : nbr_offsets[i+1]``
        the edge-slot range of the node at position ``i``;
    ``nbr_index[e]``
        the *position* of the neighbor on edge-slot ``e`` (ascending
        neighbor id within each range, inherited from
        ``Network.neighbors``);
    ``nbr_ids[e]`` / ``owner_index[e]``
        the neighbor's identity, and the owning node's position.
    """

    def __init__(self, schema: StateSchema, net: Network,
                 rows: Mapping[int, list]) -> None:
        np = numpy_or_none()
        if np is None:
            raise RuntimeError("ColumnStore needs numpy (missing, or "
                               "REPRO_NO_NUMPY is set)")
        #: the numpy module, for the vector rules compiled on this store
        self.np = np
        self.schema = schema
        self.width = schema.width
        #: node identities in ascending order; position i holds ids[i]
        self.ids: list[int] = sorted(net.nodes)
        self.pos: dict[int, int] = {v: i for i, v in enumerate(self.ids)}
        self.n = len(self.ids)
        #: aligned row references (rows are mutated in place, never
        #: replaced, so these stay valid for the simulator's lifetime)
        self.rows: list[list] = [rows[v] for v in self.ids]
        # incorruptible constants, mirrored so vector rules can read them
        # without holding the Network (repro.statics audits rule closures
        # against a small accessor allowlist)
        self.n_bound = net.n_bound
        self.id_space = net.id_space
        self.m = net.m

        # -- CSR adjacency, built once ---------------------------------
        pos = self.pos
        offsets = [0] * (self.n + 1)
        nbr_index: list[int] = []
        nbr_ids: list[int] = []
        owner_index: list[int] = []
        adjacency = net.adjacency
        min_deg = self.n  # sentinel > any degree only when n has no edges
        for i, v in enumerate(self.ids):
            nbrs = adjacency[v]
            if len(nbrs) < min_deg:
                min_deg = len(nbrs)
            for u in nbrs:  # ascending (Network stores sorted tuples)
                nbr_index.append(pos[u])
                nbr_ids.append(u)
                owner_index.append(i)
            offsets[i + 1] = len(nbr_index)
        self.min_degree = min_deg
        self.e = len(nbr_index)  # directed edge slots (2m)
        self.nbr_offsets = np.array(offsets, dtype=np.int64)
        self.nbr_index = np.array(nbr_index, dtype=np.int64)
        self.nbr_ids = np.array(nbr_ids, dtype=np.int64)
        self.owner_index = np.array(owner_index, dtype=np.int64)
        self.ids_arr = np.array(self.ids, dtype=np.int64)

        # -- columns ----------------------------------------------------
        self._cols: list = [None] * self.width
        #: per-slot encodability of the *last* sync; invalid columns hold
        #: stale bytes and vector rules must not read them
        self.valid: list[bool] = [False] * self.width
        #: True while the columns mirror the rows (for valid slots);
        #: cleared by name-keyed overwrites and unencodable writes so the
        #: next vector refresh re-syncs from first principles
        self.fresh = False

    # ------------------------------------------------------------------
    # row <-> column synchronization
    # ------------------------------------------------------------------

    def sync(self) -> "ColumnStore":
        """Re-encode every column from the (primary) slot rows."""
        np = self.np
        rows = self.rows
        valid = self.valid
        for s in range(self.width):
            vals = [r[s] for r in rows]
            ok = True
            for k, v in enumerate(vals):
                if type(v) is int:
                    if not (_INT64_MIN < v <= _INT64_MAX):
                        ok = False
                        break
                elif v is NONE:
                    vals[k] = NONE_SENTINEL
                else:
                    ok = False
                    break
            if not ok:
                valid[s] = False
                continue
            self._cols[s] = np.array(vals, dtype=np.int64)
            valid[s] = True
        self.fresh = True
        return self

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def col(self, slot: int):
        """The typed ``int64`` column of ``slot``.

        Only meaningful while :attr:`fresh` and ``valid[slot]`` hold —
        vector rules check :meth:`valid_slot` and decline otherwise.
        """
        return self._cols[slot]

    def valid_slot(self, *slots: int) -> bool:
        """Whether every given column encoded cleanly at the last sync."""
        valid = self.valid
        return all(valid[s] for s in slots)

    def value(self, node: int, slot: int):
        """Decode one cell back to the register domain (int or NONE)."""
        raw = int(self._cols[slot][self.pos[node]])
        return NONE if raw == NONE_SENTINEL else raw

    def decode_row(self, node: int) -> list:
        """Decode a whole register from the columns (round-trip tests)."""
        if not self.valid_slot(*range(self.width)):
            raise ValueError("cannot decode through invalid columns")
        i = self.pos[node]
        out = []
        for s in range(self.width):
            raw = int(self._cols[s][i])
            out.append(NONE if raw == NONE_SENTINEL else raw)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnStore(n={self.n}, width={self.width}, "
                f"fresh={self.fresh})")


def enabled_diff(new_ids: Sequence[int],
                 old_ids: Sequence[int]) -> tuple[list[int], list[int]]:
    """``(added, removed)`` between two ascending enabled sets.

    Both results ascend, the shape ``Scheduler.notify`` expects.
    """
    added: list[int] = []
    removed: list[int] = []
    i = j = 0
    ni, no = len(new_ids), len(old_ids)
    while i < ni and j < no:
        a, b = new_ids[i], old_ids[j]
        if a == b:
            i += 1
            j += 1
        elif a < b:
            added.append(a)
            i += 1
        else:
            removed.append(b)
            j += 1
    if i < ni:
        added.extend(new_ids[i:])
    if j < no:
        removed.extend(old_ids[j:])
    return added, removed
