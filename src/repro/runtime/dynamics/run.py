"""The super-stabilization measurement loop.

Super-stabilization (Dolev & Herman) asks two questions of a silent
self-stabilizing construction facing a *single* topology change and, by
extension, ongoing churn:

* **how fast does it re-silence** — rounds and moves from the event to
  the next silent configuration (the passage predicate cost); and
* **how confined is the disruption** — here measured through the local
  verifier: after an event, which nodes' certificates flicker to
  rejecting, and how far (BFS hops) do those rejections sit from the
  nodes the event touched?

:func:`run_churn` drives a live simulator through a seeded schedule of
events, waits out re-silence after each wave, reads the verifier's
rejecting set after every round, and aggregates both answers: per-wave
re-silence costs plus a rejection-distance histogram whose mass within
:data:`NEAR_RADIUS` hops is the *certification-flicker locality* metric
reported by the churn campaigns.

The verifier is local: a node's verdict reads its own registers, its
neighbours' registers and its incident edges, plus the public bounds
``n_bound``/``id_space``/``weight_space``.  So the rejecting set is kept
across rounds and waves (:class:`_LocalVerdicts`) and only *stale* nodes
are re-verified: those whose closed neighbourhood holds a row that
changed since the last sample, or that an event touched.  The result is
the whole-network verdict at every round, which ``check=True`` asserts.
"""

from __future__ import annotations

import random
from typing import Any

from repro.graphs.network import Network
from repro.runtime.dynamics.apply import EventReport, apply_event
from repro.runtime.dynamics.events import NodeCrash
from repro.runtime.dynamics.schedules import ChurnSchedule

__all__ = ["NEAR_RADIUS", "bfs_distances", "run_churn"]

#: verifier rejections within this many hops of the event's touched
#: nodes count as *near* (confined disruption)
NEAR_RADIUS = 2


def bfs_distances(net: Network, sources: tuple[int, ...]) -> dict[int, int]:
    """Multi-source BFS hop distance from ``sources`` to every node."""
    dist = {v: 0 for v in sources}
    frontier = sorted(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in net.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _bounds(net: Network) -> tuple[int, int, int]:
    """The public constants a verdict may read besides its neighbourhood."""
    return net.n_bound, net.id_space, net.weight_space()


class _LocalVerdicts:
    """A certifier's rejecting set on a live simulator, kept exact by
    re-verifying only the nodes whose verdict can have changed.

    Rows are diffed against a per-node copy taken at the last sample
    (not read from the engine's dirty set, which synchronous rounds
    replace by a bulk flag).  A changed row makes its node and every
    neighbour stale; an event makes each touched node's closed
    neighbourhood stale, and a change of the public bounds makes every
    node stale.
    """

    def __init__(self, cert: Any, sim: Any) -> None:
        self.cert = cert
        self.sim = sim
        self.bounds = _bounds(sim.net)
        self.rows = {v: row[:] for v, row in sim.rows.items()}
        self.stale = set(sim.net.nodes)
        self.rejecting: set[int] = set()

    def after_event(self, report: EventReport) -> None:
        net = self.sim.net
        event = report.event
        if isinstance(event, NodeCrash):
            # a crashed node may still be queued from a wave that ran
            # no rounds; the revision has no neighbour row to verify it by
            self.rows.pop(event.node, None)
            self.stale.discard(event.node)
            self.rejecting.discard(event.node)
        bounds = _bounds(net)
        if bounds != self.bounds:
            self.bounds = bounds
            self.stale.update(net.nodes)
            return
        for v in report.touched:
            self.stale.add(v)
            self.stale.update(net.neighbors(v))

    def after_round(self) -> set[int]:
        """Re-verify the stale nodes; the current rejecting set."""
        net = self.sim.net
        rows = self.rows
        stale = self.stale
        for v, row in self.sim.rows.items():
            if rows.get(v) != row:
                rows[v] = row[:]
                stale.add(v)
                stale.update(net.neighbors(v))
        if stale:
            nodes = sorted(stale)
            outcome = self.cert.verify(net, self.sim.config, nodes=nodes)
            self.rejecting.difference_update(nodes)
            self.rejecting.update(outcome.rejecting)
            stale.clear()
        return self.rejecting


def run_churn(sim: Any, *, kind: str, waves: int, seed: int,
              certifier_key: str | None = None,
              recorder: Any = None, check: bool = False,
              max_rounds_per_wave: int | None = None) -> dict[str, Any]:
    """Drive a simulator through seeded churn, measuring re-silence.

    Each wave draws one feasible event from a :class:`ChurnSchedule`,
    applies it (``check=True`` adds the event-boundary rescan proof
    obligation), then runs rounds until the configuration is silent
    again.  After every round the ``certifier_key`` verifier's rejecting
    set, re-verified at the stale nodes only, feeds the
    rejection-locality histogram; ``check=True`` also asserts after every
    round that it equals the whole-network verdict (RuntimeError if
    not).  ``recorder`` (a
    :class:`~repro.obs.probes.TraceRecorder` already attached to
    ``sim``) gets one v2 ``event`` row per wave.

    The schedule and the joiner-register sampler get independent
    deterministic streams split from ``seed``, so the event sequence is
    invariant under protocol/daemon choice — the grid compares like
    against like.
    """
    base = random.Random(seed)
    sched = ChurnSchedule(kind, base.getrandbits(63))
    init_rng = random.Random(base.getrandbits(63))
    verdicts = None
    if certifier_key is not None:
        from repro.certify.schemes import get_certifier
        verdicts = _LocalVerdicts(get_certifier(certifier_key), sim)

    wave_rows: list[dict[str, Any]] = []
    event_kinds: dict[str, int] = {}
    rejection_hist: dict[int, int] = {}
    rejections_total = 0
    rejections_near = 0
    interrupt_writes_total = 0

    for _ in range(waves):
        event = sched.next_event(sim.net)
        if event is None:
            break  # schedule exhausted (e.g. n_bound headroom spent)
        report = apply_event(sim, event, rng=init_rng, check=check)
        if recorder is not None:
            recorder.event_row(event=event.to_dict(), n=report.n,
                               enabled=report.enabled_after)
        event_kinds[event.kind] = event_kinds.get(event.kind, 0) + 1
        if verdicts is not None:
            verdicts.after_event(report)
        interrupt_writes_total += report.interrupt_writes
        dist = None  # hop distances, computed at the wave's first rejection

        cap = max_rounds_per_wave or 20_000 * sim.net.n
        rounds = 0
        moves_before = sim.moves
        while not sim.is_silent():
            if rounds >= cap:
                raise RuntimeError(
                    f"no re-silence within {cap} rounds after {event} "
                    f"(kind={kind}, wave {len(wave_rows) + 1})")
            sim.run_round()
            rounds += 1
            if verdicts is not None:
                rejecting = verdicts.after_round()
                if check:
                    full = verdicts.cert.verify(sim.net, sim.config).rejecting
                    if rejecting != set(full):
                        raise RuntimeError(
                            f"incremental rejecting set diverged from the "
                            f"whole-network verdict after {event} (kind="
                            f"{kind}, wave {len(wave_rows) + 1}, round "
                            f"{rounds}): {sorted(rejecting)} != {list(full)}")
                if rejecting and dist is None:
                    dist = bfs_distances(sim.net, report.touched)
                for v in rejecting:
                    d = dist.get(v, -1)  # -1: unreachable from the event
                    rejection_hist[d] = rejection_hist.get(d, 0) + 1
                    rejections_total += 1
                    if 0 <= d <= NEAR_RADIUS:
                        rejections_near += 1

        wave_rows.append({
            "event": event.to_dict(),
            "touched": len(report.touched),
            "interrupt_writes": report.interrupt_writes,
            "enabled_after": report.enabled_after,
            "rounds": rounds,
            "moves": sim.moves - moves_before,
            "n": report.n,
            "m": report.m,
        })

    rounds_all = [w["rounds"] for w in wave_rows]
    moves_all = [w["moves"] for w in wave_rows]
    return {
        "kind": kind,
        "seed": seed,
        "events": len(wave_rows),
        "event_kinds": dict(sorted(event_kinds.items())),
        "waves": wave_rows,
        "resilience_rounds_total": sum(rounds_all),
        "resilience_rounds_max": max(rounds_all, default=0),
        "resilience_moves_total": sum(moves_all),
        "resilience_moves_max": max(moves_all, default=0),
        "interrupt_writes": interrupt_writes_total,
        "rejections": rejections_total,
        "rejections_near": rejections_near,
        "rejection_hist": {str(d): c
                           for d, c in sorted(rejection_hist.items())},
        "locality": (rejections_near / rejections_total
                     if rejections_total else None),
        "silent": bool(sim.is_silent()),
    }
