"""Compiled state schemas: slot-indexed registers behind Mapping views.

The paper's registers are *fixed* field layouts — a
:class:`~repro.runtime.registers.RegisterSpec` names every field a node
may ever hold, and that layout never changes during a run.  Until this
module existed the runtime nevertheless stored every node state as a
``dict[str, object]``, so each field access on the engine's hot path
paid a string hash.  A :class:`StateSchema` compiles the spec once per
``(protocol, network)`` binding into a name → slot-index table, and the
simulator then backs every node register with a positionally-indexed
*slot row* (a plain list, one entry per field, in spec order).

Two access planes share that storage:

* **slot plane** (hot): the engine and compiled transition rules (see
  :meth:`repro.runtime.protocol.Protocol.fast_step_slots`) read and
  write ``row[i]`` directly — no hashing, no wrappers;
* **dict plane** (compatible): a :class:`SlotState` is a zero-copy
  ``MutableMapping`` view over the same row, so the name-keyed callers —
  legality predicates, certifiers, metrics — index states by field
  name, and mutations
  through either plane are visible to both.

Compatibility-view status: the Mapping plane is the *supported boundary
API* — configurations enter and leave the runtime as plain dicts
(:func:`random_configuration`, ``initial_configuration``, traces,
``RunResult.to_record``, the experiment store), and read-mostly callers
(legality predicates, verifiers, space accounting) should keep using
field names.  It is deprecated only as an *engine-internal* hot-path
representation: per-move code (protocol rules, engine loops) uses slot
indices via ``fast_step_slots``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, MutableMapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # registers imports this module; keep the cycle lazy
    from repro.graphs.network import Network
    from repro.runtime.registers import Field, RegisterSpec

__all__ = ["StateSchema", "SlotState"]


class StateSchema:
    """The compiled slot layout of one register spec.

    Built once per ``(protocol, network)`` binding (the simulator caches
    it on the spec, see :meth:`repro.runtime.registers.RegisterSpec.schema`);
    a schema is pure layout — field names, slot indices, and conversions
    between the two state planes — and holds no per-run data.
    """

    __slots__ = ("spec", "names", "index", "fields", "width")

    def __init__(self, spec: RegisterSpec) -> None:
        #: the originating :class:`RegisterSpec` (field encoders live there)
        self.spec: RegisterSpec = spec
        #: field names in slot order
        self.names: tuple[str, ...] = tuple(spec.names)
        #: field name -> slot index
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.fields: tuple[Field, ...] = tuple(spec.fields)
        #: number of slots in a row
        self.width: int = len(self.names)

    def slot(self, name: str) -> int:
        """The slot index of ``name`` (KeyError on unknown fields)."""
        return self.index[name]

    def slots(self, *names: str) -> tuple[int, ...]:
        """Slot indices for several fields at once (rule compile-time)."""
        index = self.index
        return tuple(index[n] for n in names)

    def row_of(self, state: Mapping[str, object]) -> list[object]:
        """Encode a name-keyed state into a fresh slot row.

        Raises KeyError when ``state`` misses a field of the layout;
        fields outside the layout are ignored (boundary configurations
        may carry assigner-only decoration the runtime does not store).
        """
        return [state[name] for name in self.names]

    def to_dict(self, row: Sequence[object]) -> dict[str, object]:
        """Decode a slot row into a plain name-keyed dict (a copy)."""
        return dict(zip(self.names, row))

    def default_row(self, net: Network, node: int) -> list[object]:
        """The reset register of ``node`` as a slot row."""
        return [f.default(net, node) for f in self.fields]

    def view(self, row: list[object]) -> "SlotState":
        """A zero-copy Mapping view over ``row``."""
        return SlotState(self, row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateSchema({', '.join(self.names)})"


class SlotState(MutableMapping[str, object]):
    """A dict-compatible, zero-copy view over one slot row.

    Reads and writes go straight through to the backing list, so the
    engine (which mutates rows positionally) and name-keyed callers
    (legality predicates, verifiers, tests) always observe the same
    register.  The layout is fixed: assigning an unknown field raises
    ``KeyError`` and deleting a field raises ``TypeError``.

    Equality follows dict semantics — a view compares equal to any
    Mapping with the same (name, value) items — so assertions written
    against the old dict states keep holding verbatim.
    """

    __slots__ = ("_names", "_index", "row")

    def __init__(self, schema: StateSchema, row: list[object]) -> None:
        self._names: tuple[str, ...] = schema.names
        self._index: dict[str, int] = schema.index
        #: the backing slot row (shared, mutable)
        self.row: list[object] = row

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, name: str) -> object:
        return self.row[self._index[name]]

    def __setitem__(self, name: str, value: object) -> None:
        self.row[self._index[name]] = value

    def __delitem__(self, name: str) -> None:
        raise TypeError("register layouts are fixed: cannot delete "
                        f"field {name!r}")

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def get(self, name: str, default: object = None) -> object:
        i = self._index.get(name)
        return default if i is None else self.row[i]

    def keys(self):  # type: ignore[override]  # tuple is a cheap KeysView here
        return self._names

    def items(self):  # type: ignore[override]
        return list(zip(self._names, self.row))

    def values(self):  # type: ignore[override]
        return list(self.row)

    def to_dict(self) -> dict[str, object]:
        """A plain-dict copy (the boundary serialization shape)."""
        return dict(zip(self._names, self.row))

    copy = to_dict

    # -- equality ---------------------------------------------------------

    __hash__ = None  # type: ignore[assignment]  # mutable, like dict

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SlotState):
            if other._names is self._names or other._names == self._names:
                return other.row == self.row
            other = other.to_dict()
        if isinstance(other, Mapping):
            if len(other) != len(self._names):
                return False
            row = self.row
            index = self._index
            for k, v in other.items():
                i = index.get(k)
                if i is None or row[i] != v:
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotState({self.to_dict()!r})"
