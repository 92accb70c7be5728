"""Shard-parallel synchronous-daemon execution.

One :class:`ShardWorker` per shard runs an ordinary :class:`Simulator`
on the shard-local subgraph — its owned nodes
plus their 1-hop halo — and the :class:`ShardedSimulator` drives them
through lock-step synchronous rounds:

1. **halo ingest** — rows shipped by neighbor shards at the previous
   round edge are written over the local halo registers;
2. **refresh** — the all-dirty flag is raised (halo writes plus last
   round's own writes invalidate everything near a frontier) and the
   incremental engine re-proposes;
3. **enabled-mask reconciliation** — the shard keeps only the enabled
   nodes it *owns*.  Halo nodes evaluate over incomplete neighborhoods,
   so their proposals are structurally garbage; ownership filtering is
   what makes the union of per-shard masks equal the global enabled set;
4. **apply** — the owned selection steps simultaneously off the
   pre-round configuration (:meth:`Simulator._apply_batch`'s
   gather-then-write), which is precisely the synchronous daemon;
5. **boundary exchange** — rows of owned frontier nodes that moved are
   routed to every shard holding them as halo.

A round with zero enabled owned nodes on *every* shard is global
silence.  Because each owned node sees exactly its global 1-hop
neighborhood (complete adjacency + halo rows synchronized to the
pre-round configuration), the per-round move sets — and therefore moves,
rounds, silence, and the final configuration — are bit-identical to a
single-process run on the same seed.  ``tests/test_sharding.py`` pins
that equivalence at every round boundary, across shard counts; it is
the incremental≡rescan suite lifted to processes.

Every shard runs in its own forked worker process (fork start method:
contexts are inherited, never pickled) with a private pipe.  A worker
that dies mid-round surfaces as :class:`ShardCrashError` naming the
shard and the round — partial results are never silently merged.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import resource
import sys
import traceback
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.graphs.implicit import shard_network
from repro.graphs.network import Network
from repro.runtime.scheduler import SynchronousScheduler
from repro.runtime.sharding.partition import ShardPlan, plan_partition
from repro.runtime.simulator import Simulator

__all__ = ["ShardCrashError", "ShardRunResult", "ShardWorker",
           "ShardedSimulator", "config_fingerprint", "simulator_fingerprint",
           "per_node_configuration", "single_process_reference"]

#: modulus for the order-independent configuration digest (Mersenne
#: prime: summing per-node digests mod a prime keeps the combiner
#: commutative — shards contribute partial sums in any order)
_FP_MOD = (1 << 127) - 1


class ShardCrashError(RuntimeError):
    """A shard worker died or errored mid-execution.

    Carries the shard id and the (1-based) global round in flight so the
    failure is diagnosable from the message alone; the run's partial
    results are discarded, never merged.  When the parent has seen the
    dead worker complete at least one round, ``frame`` carries that
    worker's last telemetry frame (round, moves, enabled count) — the
    last thing the shard was known to be doing.
    """

    def __init__(self, shard_id: int, round_no: int, detail: str,
                 frame: Mapping[str, int] | None = None) -> None:
        self.shard_id = shard_id
        self.round_no = round_no
        self.frame = dict(frame) if frame is not None else None
        msg = f"shard {shard_id} failed during round {round_no}: {detail}"
        if frame is not None:
            msg += (f"; last telemetry frame: round {frame['round']}, "
                    f"{frame['moves']} moves, {frame['enabled']} enabled")
        super().__init__(msg)


# ----------------------------------------------------------------------
# deterministic building blocks shared by the sharded and reference runs
# ----------------------------------------------------------------------

def config_fingerprint(schema, rows: Mapping[int, object], nodes) -> int:
    """Order-independent digest of ``nodes``' registers.

    Hashes each node's ``(id, name=value...)`` line independently and
    sums the digests mod a prime, so per-shard partial sums over disjoint
    owned sets combine to exactly the single-process whole-network value.
    Values are folded through ``repr`` — the same canonical form the
    golden-hash suites rely on (``NONE`` reprs stably, registers hold
    plain ints/tuples/strings).
    """
    names = schema.names
    total = 0
    for v in nodes:
        row = rows[v]
        line = f"{v}:" + "|".join(
            f"{name}={row[i]!r}" for i, name in enumerate(names))
        digest = hashlib.sha256(line.encode()).digest()
        total = (total + int.from_bytes(digest[:16], "big")) % _FP_MOD
    return total


def simulator_fingerprint(sim: Simulator) -> int:
    """The whole-network fingerprint of a live single-process simulator."""
    return config_fingerprint(sim.schema, sim._state, sim.net.nodes)


def _node_rng(seed: int, node: int) -> random.Random:
    """The per-node RNG stream for shard-safe arbitrary initialization."""
    digest = hashlib.sha256(f"shard-init:{seed}:{node}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def per_node_configuration(net, spec, seed: int, nodes=None):
    """An arbitrary configuration drawn from per-node RNG streams.

    :func:`repro.runtime.simulator.random_configuration` consumes one
    sequential stream over all nodes — inherently unshardable, since no
    worker may depend on corruption order.  Here every node's corruption
    is a pure function of ``(seed, node)``, so a shard can initialize
    exactly its owned nodes (whose 1-hop neighborhoods are complete on
    the shard-local subgraph) and provably match what a single process
    computes for the same nodes on the whole network.
    """
    if nodes is None:
        nodes = net.nodes
    return {v: spec.corrupt_state(net, v, _node_rng(seed, v))
            for v in nodes}


def _peak_rss_kb() -> int:
    """This process's peak resident set, in KiB (ru_maxrss is bytes on
    macOS, KiB on Linux; normalized here)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


# ----------------------------------------------------------------------
# the per-shard worker
# ----------------------------------------------------------------------

@dataclass(slots=True)
class ShardContext:
    """Everything one worker needs; inherited over fork, never pickled."""

    shard_id: int
    owned: tuple[int, ...]
    topo: object
    protocol_factory: Callable[[], object]
    #: owned frontier node -> destination shard ids for its row
    routes: dict[int, tuple[int, ...]]
    #: seed of the per-node deterministic initialization
    init_seed: int


class ShardWorker:
    """One shard: a Simulator over the shard-local subgraph."""

    def __init__(self, ctx: ShardContext) -> None:
        self.shard_id = ctx.shard_id
        self.owned = ctx.owned
        self._owned_set = frozenset(ctx.owned)
        self.routes = ctx.routes
        net, halo = shard_network(ctx.topo, ctx.owned)
        self.halo = halo
        protocol = ctx.protocol_factory()
        spec = protocol.register_spec(net)
        config = per_node_configuration(net, spec, ctx.init_seed, ctx.owned)
        for v in halo:
            # placeholder rows only: every halo node is some owning
            # shard's frontier, so the initial boundary exchange
            # overwrites all of these before the first refresh
            config[v] = spec.default_state(net, v)
        self.sim = Simulator(net, protocol, SynchronousScheduler(),
                             config=config)

    def initial_frontier(self) -> dict[int, dict[int, list]]:
        """Owned frontier rows for every destination shard (pre-round 0)."""
        rows = self.sim._state
        out: dict[int, dict[int, list]] = {}
        for v, dests in self.routes.items():
            row = list(rows[v])
            for d in dests:
                out.setdefault(d, {})[v] = row
        return out

    def round(self, halo_updates: Mapping[int, list]
              ) -> tuple[int, dict[int, dict[int, list]]]:
        """One synchronous round edge; returns (moves, outgoing rows)."""
        sim = self.sim
        rows = sim._state
        if halo_updates:
            for v, row in halo_updates.items():
                rows[v][:] = row
        # everything near a frontier may have changed
        sim._dirty_all = True
        sim._refresh()
        owned = self._owned_set
        enabled_owned = [v for v in sim._enabled._list if v in owned]
        if not enabled_owned:
            return 0, {}
        sim._apply_batch(enabled_owned)
        sim._dirty_all = True
        out: dict[int, dict[int, list]] = {}
        routes = self.routes
        for v in enabled_owned:
            dests = routes.get(v)
            if dests:
                row = list(rows[v])
                for d in dests:
                    out.setdefault(d, {})[v] = row
        return len(enabled_owned), out

    def fingerprint(self) -> int:
        """This shard's partial configuration digest (owned nodes only)."""
        return config_fingerprint(self.sim.schema, self.sim._state,
                                  self.owned)

    def collect(self) -> dict[int, dict[str, object]]:
        """The owned slice of the configuration, name-keyed (small n)."""
        names = self.sim.schema.names
        rows = self.sim._state
        return {v: dict(zip(names, rows[v])) for v in self.owned}


def _worker_main(ctx: ShardContext, conn) -> None:
    """The worker process's command loop, one per shard, over a pipe."""
    try:
        worker = ShardWorker(ctx)
        conn.send(("ready", worker.initial_frontier()))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "round":
                conn.send(("ok",) + worker.round(msg[1]))
            elif cmd == "fingerprint":
                conn.send(("ok", worker.fingerprint()))
            elif cmd == "collect":
                conn.send(("ok", worker.collect()))
            elif cmd == "rss":
                conn.send(("ok", _peak_rss_kb()))
            elif cmd == "stop":
                conn.send(("ok",))
                return
            else:  # pragma: no cover - parent never sends unknown commands
                raise RuntimeError(f"unknown shard command {cmd!r}")
    except EOFError:  # pragma: no cover - parent vanished
        return
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the parent-side round driver
# ----------------------------------------------------------------------

@dataclass(slots=True)
class ShardRunResult:
    """Outcome of a sharded execution."""

    rounds: int
    moves: int
    silent: bool
    #: the combined configuration digest at the end of the run (hex)
    fingerprint: str
    #: total moves contributed by each shard
    shard_moves: list[int]
    #: per-shard peak RSS in KiB
    peak_rss_kb: list[int]


class ShardedSimulator:
    """Drives one worker process per shard through lock-step synchronous
    rounds.

    ``topo`` is a :class:`Network` or an implicit topology; workers cut
    their shard-local subgraphs out of it themselves, so with an implicit
    topology the whole-network adjacency never materializes in any
    process.  ``protocol_factory`` builds a fresh protocol instance per
    worker (instances are not shared across shards).  ``init_seed``
    drives the per-node deterministic arbitrary initialization (see
    :func:`per_node_configuration`).  Use it as a context manager (or
    call :meth:`close`) so the workers are always reaped.

    Only the synchronous daemon is supported: the round edge *is* the
    exchange point.  Central and distributed-subset daemons make global
    choices that no shard can reproduce locally.
    """

    def __init__(self, topo, protocol_factory: Callable[[], object],
                 plan: ShardPlan | int, *,
                 init_seed: int = 0) -> None:
        if isinstance(plan, int):
            plan = plan_partition(topo, plan)
        if plan.n != topo.n:
            raise ValueError(
                f"plan covers {plan.n} nodes, topology has {topo.n}")
        probe = protocol_factory()
        if not probe.shardable:
            raise ValueError(
                f"protocol {probe.name!r} declines sharded execution "
                f"(shardable=False)")
        self.plan = plan
        self.k = plan.k
        self.protocol_name = probe.name
        self.rounds = 0
        self.moves = 0
        self.shard_moves = [0] * plan.k
        #: per-shard last telemetry frame ({"round", "moves", "enabled"})
        #: — updated every executed round, attached to ShardCrashError so
        #: a dead worker's last known state survives into the diagnosis
        self.last_frames: list[dict[str, int] | None] = [None] * plan.k
        self._silent = False
        self._procs: list = []
        self._conns: list = []

        owner = plan.owner_of()
        contexts = []
        for i, owned in enumerate(plan.shards):
            routes: dict[int, tuple[int, ...]] = {}
            for v in owned:
                dests = sorted({owner[u] for u in topo.neighbors(v)} - {i})
                if dests:
                    routes[v] = tuple(dests)
            contexts.append(ShardContext(
                shard_id=i, owned=owned, topo=topo,
                protocol_factory=protocol_factory, routes=routes,
                init_seed=init_seed))

        mp = multiprocessing.get_context("fork")
        for ctx in contexts:
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(target=_worker_main,
                              args=(ctx, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        frontiers = [self._recv(i)[0] for i in range(self.k)]

        # the initial boundary exchange: every halo row everywhere is
        # overwritten with its owner's true initial value before round 1
        self._halo_in: list[dict[int, list]] = [{} for _ in range(self.k)]
        self._route(frontiers)

    # -- plumbing -------------------------------------------------------

    def _recv(self, i: int):
        conn = self._conns[i]
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            code = self._procs[i].exitcode
            raise ShardCrashError(
                i, self.rounds + 1,
                f"worker process died (exitcode {code})",
                frame=self.last_frames[i]) from None
        if msg[0] == "error":
            raise ShardCrashError(i, self.rounds + 1,
                                  f"{msg[1]}\n{msg[2]}",
                                  frame=self.last_frames[i])
        return msg[1:]

    def _send(self, i: int, msg) -> None:
        try:
            self._conns[i].send(msg)
        except (BrokenPipeError, OSError):
            code = self._procs[i].exitcode
            raise ShardCrashError(
                i, self.rounds + 1,
                f"worker process died (exitcode {code})",
                frame=self.last_frames[i]) from None

    def _route(self, outs) -> None:
        for out in outs:
            for dest, updates in out.items():
                self._halo_in[dest].update(updates)

    def _command(self, cmd: str):
        """Round-trip one command to every shard; returns the replies."""
        for i in range(self.k):
            self._send(i, (cmd,))
        return [self._recv(i)[0] for i in range(self.k)]

    # -- execution ------------------------------------------------------

    def run_round(self) -> int:
        """One global synchronous round; returns its move count (0 =
        silent, and the round is not counted, matching ``run_round``)."""
        halo = self._halo_in
        self._halo_in = [{} for _ in range(self.k)]
        for i in range(self.k):
            self._send(i, ("round", halo[i]))
        results = [self._recv(i) for i in range(self.k)]
        total = 0
        outs = []
        attempted = self.rounds + 1
        for i, (count, out) in enumerate(results):
            total += count
            self.shard_moves[i] += count
            # under the synchronous daemon every enabled owned node
            # steps, so the shard's move count is its enabled count
            self.last_frames[i] = {"round": attempted, "moves": count,
                                   "enabled": count}
            outs.append(out)
        if total == 0:
            self._silent = True
            return 0
        self.rounds += 1
        self.moves += total
        self._route(outs)
        return total

    def run(self, max_rounds: int, *, require_silence: bool = True,
            round_hook: Callable[[int, int, list[int]], None] | None = None,
            recorder=None) -> ShardRunResult:
        """Run to silence or the round budget.

        ``round_hook(round_no, round_moves, per_shard_moves)`` fires
        after every executed round — the live progress seam (the shard
        CLI ticks rounds-to-silence through it; nothing is materialized).

        ``recorder`` (a :class:`repro.obs.probes.TraceRecorder`) streams
        the run as a unified convergence trace: workers' telemetry
        frames are merged per round into one row carrying the shard
        breakdown.  Rows are emitted with a one-round lag because a
        round's ``enabled_end`` is the *next* round's enabled count
        under the synchronous daemon (the silence check flushes the
        final row with 0); on a budget stop the last row's
        ``enabled_end`` is ``null`` — unmeasured, not zero.
        """
        if recorder is not None:
            recorder.attach_sharded(self)
        pending_row: tuple[int, list[int]] | None = None
        try:
            while not self._silent and self.rounds < max_rounds:
                before = list(self.shard_moves)
                total = self.run_round()
                per_shard = [a - b for a, b
                             in zip(self.shard_moves, before)]
                if recorder is not None:
                    if pending_row is not None:
                        recorder.round_row(
                            moves=pending_row[0],
                            enabled_start=pending_row[0],
                            enabled_end=total,
                            per_shard=pending_row[1])
                    pending_row = (total, per_shard) if total else None
                if total and round_hook is not None:
                    round_hook(self.rounds, total, per_shard)
            if recorder is not None:
                if pending_row is not None:  # budget stop mid-convergence
                    recorder.round_row(
                        moves=pending_row[0], enabled_start=pending_row[0],
                        enabled_end=None, per_shard=pending_row[1])
                recorder.finalize(silent=self._silent)
            if require_silence and not self._silent:
                raise RuntimeError(
                    f"no convergence within {max_rounds} rounds "
                    f"(sharded run, k={self.k})")
            return ShardRunResult(
                rounds=self.rounds, moves=self.moves, silent=self._silent,
                fingerprint=self.fingerprint(),
                shard_moves=list(self.shard_moves),
                peak_rss_kb=self.peak_rss_kb())
        except BaseException:
            if recorder is not None:
                recorder.abort()
            self.terminate()
            raise

    def is_silent(self) -> bool:
        return self._silent

    def fingerprint(self) -> str:
        """The combined (order-independent) configuration digest, hex."""
        total = sum(self._command("fingerprint")) % _FP_MOD
        return f"{total:032x}"

    def collect_config(self) -> dict[int, dict[str, object]]:
        """The merged name-keyed configuration (small-n verification)."""
        merged: dict[int, dict[str, object]] = {}
        for part in self._command("collect"):
            merged.update(part)
        return merged

    def peak_rss_kb(self) -> list[int]:
        """Per-shard peak RSS (KiB)."""
        return list(self._command("rss"))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Orderly shutdown of the worker processes."""
        for i in range(self.k):
            try:
                self._conns[i].send(("stop",))
                self._conns[i].recv()
            except (BrokenPipeError, OSError, EOFError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
        self.terminate()

    def terminate(self) -> None:
        """Hard shutdown (error paths); safe to call repeatedly."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ShardedSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the single-process reference (what sharded runs are proven against)
# ----------------------------------------------------------------------

def single_process_reference(topo, protocol_factory, *,
                             init_seed: int = 0,
                             max_rounds: int = 10_000,
                             require_silence: bool = True):
    """Run the same workload on one ordinary Simulator.

    Returns ``(rounds, moves, silent, fingerprint_hex)`` — the exact
    tuple a :class:`ShardRunResult` carries, computed by the unsharded
    engine on the materialized network.  The equivalence suite and the
    ``shard verify`` CLI compare against this.
    """
    net = topo if isinstance(topo, Network) else topo.materialize()
    protocol = protocol_factory()
    config = per_node_configuration(net, protocol.register_spec(net),
                                    init_seed)
    sim = Simulator(net, protocol, SynchronousScheduler(), config=config)
    rounds = 0
    while rounds < max_rounds:
        if not sim.run_round():
            break
        rounds += 1
    else:
        if require_silence and not sim.is_silent():
            raise RuntimeError(
                f"no convergence within {max_rounds} rounds "
                f"(single-process reference)")
    fp = f"{simulator_fingerprint(sim) % _FP_MOD:032x}"
    return sim.rounds, sim.moves, sim.is_silent(), fp
