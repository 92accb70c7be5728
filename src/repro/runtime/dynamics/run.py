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
events, waits out re-silence after each wave, samples the verifier every
round, and aggregates both answers: per-wave re-silence costs plus a
rejection-distance histogram whose mass within :data:`NEAR_RADIUS` hops
is the *certification-flicker locality* metric reported by the churn
campaigns.
"""

from __future__ import annotations

import random
from typing import Any

from repro.graphs.network import Network
from repro.runtime.dynamics.apply import apply_event
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


def run_churn(sim: Any, *, kind: str, waves: int, seed: int,
              certifier_key: str | None = None,
              recorder: Any = None, check: bool = False,
              max_rounds_per_wave: int | None = None) -> dict[str, Any]:
    """Drive a simulator through seeded churn, measuring re-silence.

    Each wave draws one feasible event from a :class:`ChurnSchedule`,
    applies it (``check=True`` adds the event-boundary rescan proof
    obligation), then runs rounds until the configuration is silent
    again, sampling the ``certifier_key`` verifier every round to build
    the rejection-locality histogram.  ``recorder`` (a
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
    cert = None
    if certifier_key is not None:
        from repro.certify.schemes import get_certifier
        cert = get_certifier(certifier_key)

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
            if cert is not None:
                outcome = cert.verify(sim.net, sim.config)
                if outcome.rejecting and dist is None:
                    dist = bfs_distances(sim.net, report.touched)
                for v in outcome.rejecting:
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
