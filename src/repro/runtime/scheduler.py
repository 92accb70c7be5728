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

A daemon is one method, :meth:`Scheduler.select`: given the engine's
:class:`EnabledSet` (non-empty), return a non-empty, duplicate-free subset
of it (the simulator validates this and raises on contract violations).
A central daemon states its choice once, as :meth:`CentralScheduler.pick`
(one member of the enabled set); its ``select`` is that node alone, and the
engine's fused single-mover loop calls ``pick`` directly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable

__all__ = [
    "EnabledSet",
    "Scheduler",
    "CentralScheduler",
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

    Membership tests are O(1); indexing is O(1).  The simulator owns one
    of these, keeps its hash set ``_set`` and sorted list ``_list`` in step
    as nodes enter and leave the enabled set, and hands it to schedulers,
    so no per-step rescan or re-sort of the enabled nodes is ever needed.
    """

    __slots__ = ("_set", "_list")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._set = set(items)
        self._list = sorted(self._set)

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


class Scheduler(ABC):
    """Chooses which enabled nodes take the next atomic step."""

    name: str = "scheduler"

    @abstractmethod
    def select(self, enabled: EnabledSet) -> list[int]:
        """Return a non-empty subset of ``enabled`` (which is non-empty)."""


class CentralScheduler(Scheduler):
    """A daemon that activates exactly one enabled node per step."""

    @abstractmethod
    def pick(self, enabled: EnabledSet) -> int:
        """The one member of ``enabled`` that steps next."""

    def select(self, enabled: EnabledSet) -> list[int]:
        return [self.pick(enabled)]


class SynchronousScheduler(Scheduler):
    """Every enabled node steps simultaneously."""

    name = "synchronous"

    def select(self, enabled: EnabledSet) -> list[int]:
        return list(enabled)


class CentralRandomScheduler(CentralScheduler):
    """Exactly one uniformly random enabled node steps."""

    name = "central-random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        # Random.choice(seq) is exactly seq[rng._randbelow(len(seq))]
        # on CPython; binding the bound method keeps the RNG stream
        # identical while skipping the choice() frame on the fused path.
        self._below = getattr(self._rng, "_randbelow", None)

    def pick(self, enabled: EnabledSet) -> int:
        lst = enabled._list
        below = self._below
        if below is not None:
            return lst[below(len(lst))]
        return self._rng.choice(lst)


class CentralRoundRobinScheduler(CentralScheduler):
    """One node steps; preference rotates cyclically through identities."""

    name = "central-round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def pick(self, enabled: EnabledSet) -> int:
        lst = enabled._list
        i = bisect_right(lst, self._cursor)
        v = lst[i] if i < len(lst) else lst[0]
        self._cursor = v
        return v


class CentralMaxIdScheduler(CentralScheduler):
    """Deterministically favors the largest enabled identity."""

    name = "central-max-id"

    def pick(self, enabled: EnabledSet) -> int:
        return enabled._list[-1]


class CentralMinIdScheduler(CentralScheduler):
    """Deterministically favors the smallest enabled identity."""

    name = "central-min-id"

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

    def select(self, enabled: EnabledSet) -> list[int]:
        for _ in range(self.max_redraws):
            chosen = [u for u in enabled if self._rng.random() < self.p]
            if chosen:
                return chosen
        return [self._rng.choice(enabled._list)]


class StarvingScheduler(CentralScheduler):
    """An unfair adversary that starves a victim set whenever it can.

    While any non-victim node is enabled, only non-victims step (one at a
    time, uniformly at random); victims step only when they are the sole
    enabled nodes.  With ``victims=None`` the adversary starves whichever
    node has stepped most recently (a LIFO-flavored unfairness).
    """

    name = "starving"

    def __init__(self, victims: set[int] | None = None, seed: int = 0) -> None:
        self.victims = set(victims) if victims is not None else None
        self._rng = random.Random(seed)
        self._last_stepped: int | None = None

    def pick(self, enabled: EnabledSet) -> int:
        lst = enabled._list
        victims = self.victims
        last = self._last_stepped
        if victims is not None:
            preferred = [u for u in lst if u not in victims]
            v = self._rng.choice(preferred or lst)
        elif last in enabled and len(lst) > 1:
            # skip over ``last`` by index arithmetic instead of building
            # the filtered list: random.choice(range(k)) consumes the RNG
            # exactly like random.choice over a k-element list
            i = self._rng.choice(range(len(lst) - 1))
            v = lst[i] if i < enabled.index(last) else lst[i + 1]
        else:
            v = self._rng.choice(lst)
        self._last_stepped = v
        return v


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
