"""Schedulers (daemons).

The paper assumes the *unfair scheduler*: at each step the adversary picks a
non-empty subset of the enabled nodes, with no fairness obligation — a node
may be starved for as long as any other node is enabled.  Self-stabilization
must hold for every such adversary.

We provide:

* the synchronous daemon (all enabled nodes step together),
* central daemons (exactly one node steps): uniform random, round-robin,
  deterministic max-id / min-id (simple adversaries),
* a distributed random daemon (every enabled node steps with probability p,
  redrawn a bounded number of times until at least one steps),
* a starvation adversary that delays a designated victim set as long as the
  unfairness constraint allows.

All schedulers are driven through :meth:`Scheduler.select`, which must
return a non-empty, duplicate-free subset of the enabled set (the simulator
validates this and raises on contract violations).

Incremental protocol
--------------------

The engine maintains the enabled set incrementally (O(deg) updates per
applied move instead of an O(n) rescan per scheduler step) and exposes it as
an :class:`EnabledSet` — a hybrid sorted-sequence / hash-set view.  Daemons
that keep per-step state over the enabled set (round-robin cursors, victim
filters) can consume the engine's deltas through two optional hooks:

* :meth:`Scheduler.reset` — the engine (re)attached with a full enabled set;
* :meth:`Scheduler.notify` — nodes were added to / removed from that set.

``select(enabled)`` remains the single required method and the
compatibility path: it must also accept a plain sequence from callers that
do not drive the incremental hooks.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterable, Sequence

__all__ = [
    "EnabledSet",
    "Scheduler",
    "SynchronousScheduler",
    "CentralRandomScheduler",
    "CentralRoundRobinScheduler",
    "CentralMaxIdScheduler",
    "CentralMinIdScheduler",
    "DistributedRandomScheduler",
    "StarvingScheduler",
    "ALL_SCHEDULER_FACTORIES",
]


class EnabledSet:
    """A set of node identities that is also a sorted sequence.

    Membership tests are O(1); indexing is O(1); adds and removes keep the
    sorted order via bisection (O(log n) comparisons plus a C-level
    memmove).  The simulator maintains one of these incrementally and hands
    it to schedulers, so no per-step rescan or re-sort of the enabled nodes
    is ever needed.
    """

    __slots__ = ("_set", "_list")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._set = set(items)
        self._list = sorted(self._set)

    # -- mutation (engine-only) -----------------------------------------

    def add(self, v: int) -> bool:
        """Insert ``v``; returns True if it was not already present."""
        if v in self._set:
            return False
        self._set.add(v)
        insort(self._list, v)
        return True

    def discard(self, v: int) -> bool:
        """Remove ``v``; returns True if it was present."""
        if v not in self._set:
            return False
        self._set.remove(v)
        del self._list[bisect_left(self._list, v)]
        return True

    def clear(self) -> None:
        self._set.clear()
        self._list.clear()

    # -- sequence / set protocol ----------------------------------------

    def __contains__(self, v: object) -> bool:
        return v in self._set

    def __len__(self) -> int:
        return len(self._list)

    def __bool__(self) -> bool:
        return bool(self._list)

    def __iter__(self):
        """Iterate in ascending identity order."""
        return iter(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def index(self, v: int) -> int:
        """Position of ``v`` in the sorted order; raises if absent."""
        if v not in self._set:
            raise ValueError(f"{v} not in enabled set")
        return bisect_left(self._list, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnabledSet({self._list!r})"


def _sorted_view(enabled: Sequence[int]) -> Sequence[int]:
    """``enabled`` as an ascending sequence without copying when possible."""
    if isinstance(enabled, EnabledSet):
        return enabled
    return sorted(enabled)


class Scheduler(ABC):
    """Chooses which enabled nodes take the next atomic step."""

    name: str = "scheduler"

    @abstractmethod
    def select(self, enabled: Sequence[int]) -> list[int]:
        """Return a non-empty subset of ``enabled`` (which is non-empty).

        The simulator passes an :class:`EnabledSet` (sorted, O(1)
        membership); other callers may pass any sequence.
        """

    # -- optional incremental hooks -------------------------------------

    def reset(self, enabled: "EnabledSet") -> None:
        """The engine attached (or re-attached) with a full enabled set.

        Called once before the first :meth:`select` of a run; schedulers
        with internal mirrors of the enabled set rebuild them here.
        """

    def notify(self, added: Sequence[int], removed: Sequence[int]) -> None:
        """Incremental delta: nodes entered / left the enabled set.

        Called by the engine after each batch of proposal refreshes, in
        between :meth:`select` calls.  Default: no-op.
        """

    # central daemons may additionally provide
    #
    #     pick(enabled: EnabledSet) -> int
    #
    # the single-selection equivalent of ``select`` — same distribution,
    # same RNG stream, always a member of ``enabled`` — which the
    # engine's fused stepping loop calls without the list-of-one
    # round-trip.  Absence simply keeps a scheduler on the general path.


class SynchronousScheduler(Scheduler):
    """Every enabled node steps simultaneously."""

    name = "synchronous"

    def select(self, enabled: Sequence[int]) -> list[int]:
        return list(enabled)


class CentralRandomScheduler(Scheduler):
    """Exactly one uniformly random enabled node steps."""

    name = "central-random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        # Random.choice(seq) is exactly seq[rng._randbelow(len(seq))]
        # on CPython; binding the bound method keeps the RNG stream
        # identical while skipping the choice() frame on the fused path.
        self._below = getattr(self._rng, "_randbelow", None)

    def select(self, enabled: Sequence[int]) -> list[int]:
        if isinstance(enabled, EnabledSet):
            # choose on the backing list: C-level indexing, no O(n) copy
            return [self._rng.choice(enabled._list)]
        return [self._rng.choice(enabled)]

    def pick(self, enabled: EnabledSet) -> int:
        lst = enabled._list
        below = self._below
        if below is not None:
            return lst[below(len(lst))]
        return self._rng.choice(lst)


class CentralRoundRobinScheduler(Scheduler):
    """One node steps; preference rotates cyclically through identities."""

    name = "central-round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, enabled: Sequence[int]) -> list[int]:
        ordered = _sorted_view(enabled)
        i = bisect_right(ordered, self._cursor)
        pick = ordered[i] if i < len(ordered) else ordered[0]
        self._cursor = pick
        return [pick]

    def pick(self, enabled: EnabledSet) -> int:
        lst = enabled._list
        i = bisect_right(lst, self._cursor)
        v = lst[i] if i < len(lst) else lst[0]
        self._cursor = v
        return v


class CentralMaxIdScheduler(Scheduler):
    """Deterministically favors the largest enabled identity."""

    name = "central-max-id"

    def select(self, enabled: Sequence[int]) -> list[int]:
        if isinstance(enabled, EnabledSet):
            return [enabled[-1]]
        return [max(enabled)]

    def pick(self, enabled: EnabledSet) -> int:
        return enabled._list[-1]


class CentralMinIdScheduler(Scheduler):
    """Deterministically favors the smallest enabled identity."""

    name = "central-min-id"

    def select(self, enabled: Sequence[int]) -> list[int]:
        if isinstance(enabled, EnabledSet):
            return [enabled[0]]
        return [min(enabled)]

    def pick(self, enabled: EnabledSet) -> int:
        return enabled._list[0]


class DistributedRandomScheduler(Scheduler):
    """Every enabled node steps independently with probability ``p``.

    The draw is repeated while the selection comes out empty, but only up
    to ``max_redraws`` times: with small ``p`` and a small enabled set an
    unbounded redraw loop is a latent hang (expected (1/p)^|enabled| tries
    when p·|enabled| is tiny).  After the bound is exhausted the daemon
    falls back to activating one uniformly random enabled node — still a
    legal unfair-daemon choice.
    """

    name = "distributed-random"

    def __init__(self, p: float = 0.5, seed: int = 0,
                 max_redraws: int = 64) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if max_redraws < 1:
            raise ValueError("max_redraws must be >= 1")
        self.p = p
        self.max_redraws = max_redraws
        self._rng = random.Random(seed)

    def select(self, enabled: Sequence[int]) -> list[int]:
        for _ in range(self.max_redraws):
            chosen = [u for u in enabled if self._rng.random() < self.p]
            if chosen:
                return chosen
        return [self._rng.choice(_sorted_view(enabled))]


class StarvingScheduler(Scheduler):
    """An unfair adversary that starves a victim set whenever it can.

    While any non-victim node is enabled, only non-victims step (one at a
    time, rotating); victims step only when they are the sole enabled nodes.
    With ``victims=None`` the adversary starves whichever node has stepped
    most recently (a LIFO-flavored unfairness).

    When driven by the engine's incremental hooks, the non-victim subset is
    mirrored in its own :class:`EnabledSet` (updated in O(log n) per delta)
    instead of being re-filtered from scratch at every step.
    """

    name = "starving"

    def __init__(self, victims: set[int] | None = None, seed: int = 0) -> None:
        self.victims = set(victims) if victims is not None else None
        self._rng = random.Random(seed)
        self._last_stepped: int | None = None
        self._preferred: EnabledSet | None = None  # incremental mirror

    # -- incremental hooks ----------------------------------------------

    def reset(self, enabled: EnabledSet) -> None:
        if self.victims is not None:
            self._preferred = EnabledSet(
                u for u in enabled if u not in self.victims)

    def notify(self, added: Sequence[int], removed: Sequence[int]) -> None:
        if self._preferred is None:
            return
        victims = self.victims
        for u in added:
            if u not in victims:
                self._preferred.add(u)
        for u in removed:
            self._preferred.discard(u)

    # -- selection -------------------------------------------------------

    def select(self, enabled: Sequence[int]) -> list[int]:
        if self.victims is not None:
            choice = self._select_avoiding_victims(enabled)
        else:
            choice = self._select_avoiding_last(enabled)
        self._last_stepped = choice
        return [choice]

    def _select_avoiding_victims(self, enabled: Sequence[int]) -> int:
        if isinstance(enabled, EnabledSet) and self._preferred is not None:
            preferred: Sequence[int] = self._preferred
        else:  # compatibility path: caller drives select() directly
            preferred = [u for u in enabled if u not in self.victims]
        if preferred:
            return self._rng.choice(preferred)
        return self._rng.choice(_sorted_view(enabled))

    def _select_avoiding_last(self, enabled: Sequence[int]) -> int:
        last = self._last_stepped
        if isinstance(enabled, EnabledSet):
            # Skip over ``last`` by index arithmetic instead of building the
            # filtered list: random.choice(range(k)) consumes the RNG
            # exactly like random.choice over a k-element list.
            if last in enabled and len(enabled) > 1:
                i = self._rng.choice(range(len(enabled) - 1))
                skip = enabled.index(last)
                return enabled[i] if i < skip else enabled[i + 1]
            return self._rng.choice(enabled)
        pool = list(enabled)
        preferred = [u for u in pool if u != last]
        return self._rng.choice(preferred or pool)


#: Factories for "run it under every daemon" tests: name -> seed -> Scheduler.
ALL_SCHEDULER_FACTORIES: dict[str, Callable[[int], Scheduler]] = {
    "synchronous": lambda seed: SynchronousScheduler(),
    "central-random": lambda seed: CentralRandomScheduler(seed),
    "central-round-robin": lambda seed: CentralRoundRobinScheduler(),
    "central-max-id": lambda seed: CentralMaxIdScheduler(),
    "central-min-id": lambda seed: CentralMinIdScheduler(),
    "distributed-random": lambda seed: DistributedRandomScheduler(0.5, seed),
    "starving": lambda seed: StarvingScheduler(None, seed),
}
