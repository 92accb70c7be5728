"""Pinned, named workloads and the one driver that executes them.

A :class:`Workload` is plain data naming everything one execution needs —
protocol, topology, daemon, initial configuration, and the execution
budget — with **every seed pinned**.  Two executions of the same workload
on the same tree therefore perform the exact same move sequence, which is
what lets ``repro obs record`` traces be diffed byte for byte and the
tests pin exact ``(moves, rounds, silent)`` counts.

The registry covers:

* ``acceptance-sst-512`` — the acceptance workload (512-node random graph
  seed 42, SST, central-random daemon seed 3, arbitrary init seed 7, run
  to silence: 17,265 moves / 19 rounds);
* ``smoke-*`` workloads at n = 48 (n = 512 for the sharded one), small
  enough that CI records and validates their traces on every change;
* ``guided-bfs``/``guided-mst``/``guided-mdst`` at n in {128, 512}: the
  paper's own constructions, budget-bounded;
* ``churn-sst-512``: the acceptance shape run to silence, then a pinned
  seeded churn schedule to re-silence;
* the scale tier the nightly job records: ``sst-65536`` and
  ``guided-bfs-32768`` on the single-process engine, ``sst-1m`` and
  ``guided-bfs-262144`` on the partitioned engine
  (:mod:`repro.runtime.sharding`) with one worker process per shard.

Workloads resolve through the experiment registries
(:mod:`repro.experiments.registry`).  Timing lives in ``perfbench/``, the
repository's benchmark; :func:`execute` reports the round-loop seconds
only as information.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.experiments.registry import SCHEDULERS, build_config, build_network, build_protocol
from repro.runtime.simulator import Simulator

__all__ = ["WORKLOADS", "Execution", "Workload", "build_simulator", "execute"]


@dataclass(frozen=True)
class Workload:
    """One pinned execution, as data.

    ``round_budget`` / ``move_budget`` bound the execution: whole rounds
    run until silence or either budget is reached.  A budget of 0 means
    unbounded (the workload must then be silent self-stabilizing).  Only
    a move budget (``round_budget == 0``) runs in step mode: single
    moves, so rounds stay 0.
    """

    name: str
    protocol: str
    topology: str
    topo_params: tuple[tuple[str, object], ...]
    scheduler: str = "synchronous"
    scheduler_seed: int = 5
    init: str = "defaults"
    init_params: tuple[tuple[str, object], ...] = ()
    round_budget: int = 0
    move_budget: int = 0
    #: shards > 0 routes the workload through the partitioned engine
    #: (:mod:`repro.runtime.sharding`) with one worker process per
    #: shard; the sharded engine is synchronous-daemon only and uses
    #: per-node keyed initialization (``init="per-node"``, seed from
    #: ``init_params``), so those fields are validated together
    shards: int = 0
    #: churn params (``kind``/``waves``/``seed``): after the run reaches
    #: silence the dynamics engine applies a seeded topology-event
    #: schedule and runs on to re-silence.  Churn workloads are
    #: silence-bound (no budgets) and single-process (topology events on
    #: a sharded run are refused by the engine)
    churn: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.round_budget < 0 or self.move_budget < 0:
            raise ValueError(f"{self.name}: budgets must be >= 0")
        if self.shards < 0:
            raise ValueError(f"{self.name}: shards must be >= 0")
        if self.shards > 0:
            if self.scheduler != "synchronous":
                raise ValueError(f"{self.name}: sharded workloads need the synchronous scheduler")
            if self.init != "per-node":
                raise ValueError(f"{self.name}: sharded workloads require init='per-node'")
            if self.move_budget:
                raise ValueError(
                    f"{self.name}: sharded workloads are round-budgeted only "
                    f"(move_budget unsupported)"
                )
        if self.churn:
            if self.shards > 0:
                raise ValueError(
                    f"{self.name}: churn workloads are single-process "
                    f"(topology events on a sharded run are unsupported)"
                )
            if self.round_budget or self.move_budget:
                raise ValueError(
                    f"{self.name}: churn workloads run to silence "
                    f"(budgets unsupported — re-silence is the measurement)"
                )

    @property
    def topo(self) -> dict[str, object]:
        return dict(self.topo_params)

    @property
    def init_args(self) -> dict[str, object]:
        return dict(self.init_params)

    @property
    def churn_args(self) -> dict[str, object]:
        return dict(self.churn)


def _params(**kwargs: object) -> tuple[tuple[str, object], ...]:
    """Sorted key/value tuple form (hashable, order-insensitive)."""
    return tuple(sorted(kwargs.items()))


def _build_registry() -> dict[str, Workload]:
    # The acceptance shape: random graph seed 42, arbitrary init seed 7,
    # central-random daemon seed 3, run to silence.
    acceptance = dict(
        protocol="sst",
        topology="random",
        scheduler="central-random",
        scheduler_seed=3,
        init="arbitrary",
        init_params=_params(seed=7),
    )
    workloads: list[Workload] = [
        Workload(name="acceptance-sst-512", topo_params=_params(n=512, seed=42), **acceptance),
        # small enough to run to silence in milliseconds: CI records its
        # full convergence trace on every change
        Workload(name="smoke-sst-48", topo_params=_params(n=48, seed=42), **acceptance),
        # the single-process scale tier (nightly): one multi-million-move
        # central-daemon run to silence through the scalar slot rule
        Workload(name="sst-65536", topo_params=_params(n=65536, seed=42), **acceptance),
        # The sharded scale tier (nightly): a million-node implicit grid
        # over 8 worker processes — the whole-network adjacency never
        # materializes in any one of them.  Each round moves the full node
        # set, so 3 rounds is already millions of moves.
        Workload(
            name="sst-1m",
            protocol="sst",
            topology="implicit-grid",
            topo_params=_params(rows=1000, cols=1000),
            init="per-node",
            init_params=_params(seed=7),
            round_budget=3,
            shards=8,
        ),
        # 512 nodes over two worker processes, run to silence: partition,
        # boundary exchange and frontier reconciliation on every change
        Workload(
            name="smoke-shard-sst-512",
            protocol="sst",
            topology="implicit-grid",
            topo_params=_params(rows=16, cols=32),
            init="per-node",
            init_params=_params(seed=7),
            shards=2,
        ),
        # The super-stabilization tier: the acceptance shape run to
        # silence, then a pinned seeded mixed churn schedule.  ``headroom``
        # widens n_bound so node-join events have room under the
        # incorruptible public bound.
        Workload(
            name="churn-sst-512",
            topo_params=_params(n=512, seed=42, headroom=32),
            churn=_params(kind="mixed", waves=8, seed=21),
            **acceptance,
        ),
        # small, but big enough that all four mixed event kinds stay
        # feasible
        Workload(
            name="smoke-churn-sst-48",
            topo_params=_params(n=48, seed=42, headroom=8),
            churn=_params(kind="mixed", waves=4, seed=21),
            **acceptance,
        ),
        # The classical families, budget-bounded: the compact MST baseline
        # is never silent (that is the paper's point), and a BGR MDST
        # transition carries whole-tree state.  BFS starts adversarial,
        # NCA from a legal BFS tree.
        Workload(
            name="smoke-bfs-48",
            protocol="adhoc-bfs",
            topology="random",
            topo_params=_params(n=48, seed=11),
            init="arbitrary",
            init_params=_params(seed=2),
            round_budget=24,
        ),
        Workload(
            name="smoke-mst-48",
            protocol="compact-mst",
            topology="random",
            topo_params=_params(n=48, seed=12, weighted=True),
            round_budget=24,
        ),
        Workload(
            name="smoke-mdst-48",
            protocol="bgr-mdst",
            topology="random",
            topo_params=_params(n=48, extra_edges=96, seed=13),
            round_budget=6,
            move_budget=30_000,
        ),
        Workload(
            name="smoke-nca-48",
            protocol="nca-build",
            topology="random-tree",
            topo_params=_params(n=48, seed=14),
            init="bfs-tree",
            round_budget=24,
        ),
    ]
    # The guided constructions.  BFS measures recovery from an arbitrary
    # configuration; MST/MDST measure label settling plus the
    # detector/chain-switch improvement loop from a seeded random tree.
    for n, rounds in ((128, 48), (512, 32), (32768, 8)):
        workloads.append(
            Workload(
                name=f"guided-bfs-{n}",
                protocol="guided-bfs",
                topology="random",
                topo_params=_params(n=n, seed=17),
                init="arbitrary",
                init_params=_params(seed=4),
                round_budget=rounds,
            )
        )
    # the sharded guided-BFS scale tier (nightly): a quarter-million-node
    # implicit grid over 8 worker processes
    workloads.append(
        Workload(
            name="guided-bfs-262144",
            protocol="guided-bfs",
            topology="implicit-grid",
            topo_params=_params(rows=512, cols=512),
            init="per-node",
            init_params=_params(seed=4),
            round_budget=4,
            shards=8,
        )
    )
    for n, rounds in ((128, 32), (512, 32)):
        workloads.append(
            Workload(
                name=f"guided-mst-{n}",
                protocol="guided-mst",
                topology="random",
                topo_params=_params(n=n, seed=18, weighted=True),
                init="random-tree",
                init_params=_params(seed=5),
                round_budget=rounds,
                move_budget=60_000,
            )
        )
    for n, rounds in ((128, 16), (512, 12)):
        workloads.append(
            Workload(
                name=f"guided-mdst-{n}",
                protocol="guided-mdst",
                topology="random",
                topo_params=_params(n=n, extra_edges=2 * n, seed=19),
                init="random-tree",
                init_params=_params(seed=6),
                round_budget=rounds,
                move_budget=30_000,
            )
        )
    for task, init, init_seed, extra in (
        ("guided-bfs", "arbitrary", 4, {}),
        ("guided-mst", "random-tree", 5, {"weighted": True}),
        ("guided-mdst", "random-tree", 6, {"extra_edges": 96}),
    ):
        workloads.append(
            Workload(
                name=f"smoke-{task}-48",
                protocol=task,
                topology="random",
                topo_params=_params(n=48, seed=17, **extra),
                init=init,
                init_params=_params(seed=init_seed),
                round_budget=16,
                move_budget=20_000,
            )
        )

    registry: dict[str, Workload] = {}
    for w in workloads:
        if w.name in registry:
            raise ValueError(f"duplicate workload name {w.name!r}")
        registry[w.name] = w
    return registry


#: The pinned workload registry, name -> workload (insertion-ordered).
WORKLOADS: dict[str, Workload] = _build_registry()


class Execution(NamedTuple):
    """The outcome of one execution; ``seconds`` covers only the round
    loop (construction excluded)."""

    seconds: float
    moves: int
    rounds: int
    silent: bool
    n: int
    m: int


def build_simulator(workload: Workload, **kwargs: Any) -> Simulator:
    """A fresh single-process simulator for ``workload``, built from its
    pinned seeds; ``kwargs`` (e.g. ``recorder``) go to :class:`Simulator`."""
    net = build_network(workload.topology, workload.topo, random.Random(0))
    proto, _ = build_protocol(workload.protocol)
    config, _ = build_config(workload.init, net, proto, random.Random(1), workload.init_args)
    scheduler = SCHEDULERS[workload.scheduler](workload.scheduler_seed)
    return Simulator(net, proto, scheduler, config=config, **kwargs)


def _sharded_execution(workload: Workload, recorder: Any) -> Execution:
    """One budgeted execution on the partitioned engine.

    ``workload.shards`` worker processes each own one shard of the
    topology; the clock covers only the lock-step round loop (worker
    spawn and the initial boundary exchange are construction).
    """
    from repro.graphs.implicit import IMPLICIT_TOPOLOGIES, build_topology
    from repro.runtime.sharding import ShardedSimulator, plan_partition

    if workload.topology in IMPLICIT_TOPOLOGIES:
        topo = build_topology(workload.topology, workload.topo)
    else:
        topo = build_network(workload.topology, workload.topo, random.Random(0))
    plan = plan_partition(topo, workload.shards)
    protocol_name = workload.protocol

    def factory():
        return build_protocol(protocol_name)[0]

    seed = workload.init_args.get("seed", 0)
    assert isinstance(seed, int)
    with ShardedSimulator(topo, factory, plan, init_seed=seed) as sharded:
        t0 = time.perf_counter()
        result = sharded.run(
            max_rounds=workload.round_budget or sys.maxsize,
            require_silence=workload.round_budget == 0,
            recorder=recorder,
        )
        seconds = time.perf_counter() - t0
    return Execution(seconds, result.moves, result.rounds, result.silent, topo.n, topo.m)


def execute(workload: Workload, recorder: Any = None) -> Execution:
    """Build everything fresh and run one budgeted execution.

    ``recorder`` (a :class:`~repro.obs.probes.TraceRecorder`) is attached
    at construction and finalized when the run stops, so a trace
    describes precisely the pinned workload.
    """
    if workload.shards > 0:
        return _sharded_execution(workload, recorder)
    sim = build_simulator(workload, recorder=recorder)
    net = sim.net

    t0 = time.perf_counter()
    if workload.round_budget == 0 and workload.move_budget > 0:
        # step mode: a sub-round move budget (rounds stay 0 by definition)
        sim.run_steps(workload.move_budget)
    else:
        round_budget = workload.round_budget or sys.maxsize
        move_budget = workload.move_budget or sys.maxsize
        while sim.rounds < round_budget and sim.moves < move_budget:
            if not sim.run_round(max_moves=10_000_000):
                break
    if workload.churn:
        # the super-stabilization phase: the pinned seeded event schedule
        # against the silent configuration, run to re-silence
        from repro.runtime.dynamics.run import run_churn

        ca = workload.churn_args
        run_churn(
            sim,
            kind=str(ca.get("kind", "mixed")),
            waves=int(ca.get("waves", 1)),
            seed=int(ca.get("seed", 0)),
            recorder=recorder,
        )
    seconds = time.perf_counter() - t0
    if recorder is not None:
        recorder.finalize(silent=sim.is_silent())
    return Execution(seconds, sim.moves, sim.rounds, sim.is_silent(), net.n, net.m)
