"""The execution engine.

Implements the paper's execution and complexity model:

* **Atomic step**: a node reads its own register and its neighbors'
  registers, applies the transition function, writes its register.
* **Enabled node**: a node whose register differs from what the transition
  function would write (equivalently, the protocol's slot rule returns a
  non-trivial update).
* **Scheduler step**: the daemon activates a non-empty subset of the enabled
  nodes; the activated nodes' writes are applied simultaneously, each based
  on the pre-step configuration (single-writer registers make this sound).
* **Round** (Section II-A): starting from a configuration, the round is the
  shortest execution prefix in which every node enabled at the start has
  either executed a step or become non-enabled because of a neighbor's step.
* **Silence**: a configuration with no enabled node.  A silent
  self-stabilizing algorithm must reach a *legal* silent configuration from
  every initial configuration.

Incremental enabled-set engine
------------------------------

The engine maintains a live :class:`~repro.runtime.scheduler.EnabledSet`
plus a *dirty set* of nodes whose cached proposals a write (or a fault)
invalidated.  Applying a batch of writes only dirties the write
neighborhoods; the next scheduler step re-proposes exactly the dirty nodes
and updates the enabled set in place, so the daemon's next
:meth:`Scheduler.select` reads it as it stands.  A scheduler step
therefore costs O(deg) proposal recomputations per applied write instead
of the O(n) full rescan the previous engine performed before every
``select`` — the difference between O(n·M) and O(Δ·M) Python work for an
M-move central-daemon execution.  Single-mover steps (every central
daemon's, and any one-node selection) are applied inline by the fused
loop of :meth:`Simulator.run_round`.
Large batches (synchronous rounds, mass faults) skip the per-write
bookkeeping entirely and raise a single *all-dirty* flag instead: one
refresh pass over the whole network replaces thousands of set inserts.
:meth:`Simulator.rescan_enabled` recomputes enabledness from scratch with
no caches (the same rule over freshly gathered neighbor rows), for
cross-checking the incremental state in tests.

Driving the engine from outside
-------------------------------

The engine is the only owner of its caches (proposals, the enabled set,
the dirty set, the neighbor row table).  Callers read registers through
``Simulator.rows`` (or the ``config`` views) and change the execution
through three methods, which keep those caches coherent:

* :meth:`Simulator.step` — one daemon step of the given nodes
  (:meth:`Simulator.run_steps` loops over it; sharded workers apply
  their owned enabled nodes with it);
* :meth:`Simulator.write` — the one external register write (fault
  injection, interrupt sections, shard halo rows); it dirties the
  closed neighborhood of a node whose register changed;
* :meth:`Simulator.rebind` — moves the engine onto a revised network
  between rounds (topology events, :mod:`repro.runtime.dynamics`).

Slot-indexed state
------------------

Node registers are stored as **slot rows** — plain lists indexed by the
:class:`~repro.runtime.schema.StateSchema` compiled once per
``(protocol, network)`` from the protocol's
:class:`~repro.runtime.registers.RegisterSpec`.  ``Simulator.config``
exposes the same storage as zero-copy
:class:`~repro.runtime.schema.SlotState` Mapping views, so name-keyed
callers (legality predicates, verifiers, metrics, tests) are unaffected.
Every protocol runs on the raw rows through one slot rule per binding,
the rule its :meth:`Protocol.fast_step_slots` compiles; the shard
workers of :mod:`repro.runtime.sharding` are Simulators too, so they
bind the same rule.  Configurations cross the boundary as plain dicts in both
directions (``config=`` input, :func:`random_configuration`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.graphs.network import Network
from repro.runtime.protocol import Protocol, effective_delta
from repro.runtime.scheduler import EnabledSet, Scheduler, SynchronousScheduler

__all__ = ["Simulator", "RunResult", "random_configuration"]

Config = dict[int, Mapping[str, object]]


@dataclass(slots=True)
class RunResult:
    """Outcome of a (partial) execution."""

    rounds: int
    moves: int
    silent: bool
    stopped_by_predicate: bool = False
    invariant_violations: int = 0

    def to_record(self) -> dict[str, object]:
        """A JSON-serializable summary of this run.

        This is the shape the experiment campaign store persists; keep the
        keys stable — result files written by old campaigns must remain
        readable by new reports.
        """
        return {
            "rounds": self.rounds,
            "moves": self.moves,
            "silent": self.silent,
            "stopped_by_predicate": self.stopped_by_predicate,
            "invariant_violations": self.invariant_violations,
        }


def random_configuration(net: Network, protocol: Protocol,
                         seed: int = 0,
                         rng: random.Random | None = None) -> Config:
    """An *arbitrary* configuration: every field of every register corrupted.

    This is the canonical starting point for self-stabilization tests: the
    adversary has written arbitrary (domain-valid) values everywhere.
    An explicit ``rng`` takes precedence over ``seed``; module-level global
    RNG state is never touched either way, so parallel campaign workers can
    corrupt configurations without sharing streams.
    """
    if rng is None:
        rng = random.Random(seed)
    spec = protocol.register_spec(net)
    return {v: spec.corrupt_state(net, v, rng) for v in net.nodes}


class Simulator:
    """Runs one protocol on one network under one scheduler."""

    def __init__(
        self,
        net: Network,
        protocol: Protocol,
        scheduler: Scheduler | None = None,
        config: Config | None = None,
        invariant: Callable[[Network, Config], bool] | None = None,
        rng: random.Random | None = None,
        recorder: object | None = None,
    ) -> None:
        self.net = net
        self.protocol = protocol
        self.scheduler = scheduler or SynchronousScheduler()
        #: the simulator's own entropy source, injectable so campaign
        #: workers run on isolated streams.  The engine itself is
        #: deterministic and never draws from it; it is the default stream
        #: for adversarial helpers acting on this simulator (e.g.
        #: :func:`repro.runtime.faults.inject_random_faults`).
        self.rng = rng if rng is not None else random.Random(0)
        self.spec = protocol.register_spec(net)
        #: the compiled slot layout of this (protocol, network) binding
        self.schema = self.spec.schema()
        if config is None:
            config = protocol.initial_configuration(net)
        # encode the boundary configuration into slot rows (this also
        # validates its shape); ``self.config`` shares the storage as
        # zero-copy Mapping views, so name-keyed reads stay supported
        names = self.schema.names
        rows: dict[int, list] = {}
        for v in net.nodes:
            if v not in config:
                raise ValueError(f"configuration missing node {v}")
            state = config[v]
            try:
                rows[v] = [state[name] for name in names]
            except KeyError:
                missing = [n for n in names if n not in state]
                raise ValueError(
                    f"node {v} register missing fields {sorted(missing)}"
                ) from None
        #: the live slot rows, one list per node, mutated in place and
        #: never replaced.  Read-only outside the engine: registers change
        #: through :meth:`step` and :meth:`write`.
        self.rows = rows
        view = self.schema.view
        self.config: dict[int, object] = {v: view(rows[v]) for v in net.nodes}
        self.invariant = invariant
        self.moves = 0
        self.rounds = 0
        # cold-path engagement counter (never touched by the fused loop):
        # settle-retirements taken through _apply_batch.  The telemetry
        # layer diffs it per round.
        self.stat_settle_retired = 0
        # always 0: perfbench/trial.py still reads this name
        self.stat_vector_refreshes = 0
        self._invariant_violations = 0
        # incremental enabledness machinery: valid proposals for every
        # non-dirty node (slot-keyed deltas), the live enabled set, and the
        # dirty set / all-dirty flag for nodes whose proposals the last
        # writes or faults invalidated.
        self._proposal: dict[int, dict[int, object] | None] = {}
        self._enabled = EnabledSet()
        self._dirty: set[int] = set()
        self._dirty_all = True
        self._pending: set[int] | None = None  # the active round's pending set
        # write-path contracts (Protocol.settles_after_move /
        # fast_write_impact): movers that provably land disabled retire
        # from the enabled set at apply time, and a compiled impact filter
        # narrows which neighbors a write re-dirties.  Both are soundness
        # claims about the rule itself.
        self._settles = bool(getattr(protocol, "settles_after_move", False))
        self._nbr_rows: dict[int, tuple] = {}
        self._bind(net, net.nodes)
        # telemetry seam: hook selection happens HERE, once, at setup.
        # With no recorder the engine runs the exact pre-telemetry byte
        # path — no per-move branch anywhere below; with one, the
        # observed round loop shadows ``run_round`` on this instance
        # only and emits one trace row per round.
        self._obs = recorder
        if recorder is not None:
            self.run_round = self._run_round_observed  # type: ignore[method-assign]
            recorder.attach(self)

    # ------------------------------------------------------------------
    # proposals and enabledness
    # ------------------------------------------------------------------

    def _bind(self, net: Network, changed: Iterable[int]) -> None:
        """Bind the engine to ``net`` under the current schema.

        Runs at construction and again in :meth:`rebind`.  Derives what
        the engine keeps per network (the bulk-batch threshold and the
        neighbor row table), resolves the slot rule
        (:meth:`Protocol.fast_step_slots`) and the write-impact filter,
        and binds :attr:`_repropose` — the one per-node re-proposal
        kernel, bound here once so the hot paths pay one call per
        refresh or per fused move, not one per node.

        Only the neighbor rows of ``changed`` are rebuilt: the nodes
        whose neighborhood is new (every node at construction).
        """
        self.net = net
        protocol, schema = self.protocol, self.schema
        # batch-aware bookkeeping: a write batch at least this large
        # (a synchronous round, a mass fault) raises the all-dirty flag
        # instead of performing per-write neighborhood set inserts — one
        # refresh pass per round replaces the per-batch bookkeeping.
        # Purely an accounting choice: refresh re-proposes a superset,
        # and re-proposing a clean node reproduces its cached proposal.
        self._bulk_dirty = max(4, net.n // 4)
        rows = self.rows
        rule = protocol.fast_step_slots(schema)
        self._slot_rule = rule
        # slot rows are mutated in place (never replaced) by _apply_batch
        # and write, so these references stay valid for the binding
        nbr_rows = self._nbr_rows
        for v in changed:
            nbr_rows[v] = tuple((u, rows[u]) for u in net.neighbors(v))
        self._write_impact = protocol.fast_write_impact(schema)
        config = self.config
        proposal = self._proposal
        dirty = self._dirty
        # engine-owned EnabledSet internals, updated in place (the
        # method-call indirection is measurable at this call rate)
        eset = self._enabled._set
        elist = self._enabled._list

        def repropose(items: Sequence[int]) -> None:
            """Re-propose ``items`` in order, updating the enabled set and
            pruning nodes that became disabled from the round's pending
            set."""
            removed: list[int] = []
            i = 0
            try:
                for i, v in enumerate(items):
                    # deltas are slot-keyed and effective (every slot
                    # changes the row), so everything downstream
                    # (_apply_batch, the fused move) is index-only
                    delta = rule(net, config, v, rows[v], nbr_rows[v])
                    if delta:
                        proposal[v] = delta
                        if v not in eset:
                            eset.add(v)
                            insort(elist, v)
                    else:
                        proposal[v] = None
                        if v in eset:
                            eset.remove(v)
                            del elist[bisect_left(elist, v)]
                            removed.append(v)
            except BaseException:
                # a raising rule must not desynchronize the engine: the
                # node that failed and everything unprocessed stay dirty,
                # while the transitions already made still prune the
                # pending set below
                dirty.update(items[i:])
                raise
            finally:
                if removed and self._pending is not None:
                    self._pending.difference_update(removed)

        self._repropose = repropose

    def _refresh(self) -> None:
        """Re-propose every dirty node, settling the incremental state.

        Cost is O(|dirty|) transition evaluations — O(deg) per write applied
        since the last refresh, or one O(n) pass when a bulk batch raised
        the all-dirty flag.  The kernel updates the enabled set and prunes
        the active round's pending set.
        """
        if self._dirty_all:
            self._dirty_all = False
            self._dirty.clear()
            self._repropose(self.net.nodes)
        elif self._dirty:
            items = sorted(self._dirty)
            self._dirty.clear()
            self._repropose(items)

    def enabled_nodes(self) -> list[int]:
        """All currently enabled nodes, ascending."""
        self._refresh()
        return list(self._enabled)

    def enabled_set(self) -> EnabledSet:
        """The live enabled set (engine-owned; treat as read-only)."""
        self._refresh()
        return self._enabled

    def rescan_enabled(self) -> list[int]:
        """Enabled nodes recomputed from scratch, bypassing every cache.

        O(n) evaluations of the binding's slot rule over neighbor rows
        gathered afresh from the network, ignoring the cached proposals,
        the dirty set and the neighbor row table; exists so tests can
        cross-check the incrementally maintained enabled set against
        first principles.
        """
        net, config, rule = self.net, self.config, self._slot_rule
        return [v for v in net.nodes
                if effective_delta(rule, net, config, v) is not None]

    def is_silent(self) -> bool:
        self._refresh()
        return not self._enabled

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _validate_selection(self, chosen: Sequence[int]) -> None:
        """Enforce the daemon contract: non-empty, duplicate-free, enabled."""
        if not chosen:
            raise RuntimeError(
                f"scheduler {self.scheduler.name!r} selected no node from a "
                f"non-empty enabled set")
        if len(chosen) == 1:  # the common central-daemon case
            if chosen[0] not in self._enabled:
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} selected non-enabled "
                    f"nodes [{chosen[0]}] (enabled: {list(self._enabled)})")
            return
        name = self.scheduler.name
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen):
            dups = sorted(v for v in chosen_set if chosen.count(v) > 1)
            raise RuntimeError(
                f"scheduler {name!r} selected duplicate nodes {dups}; a node "
                f"takes at most one atomic step per daemon step")
        stray = [v for v in chosen_set if v not in self._enabled]
        if stray:
            raise RuntimeError(
                f"scheduler {name!r} selected non-enabled nodes "
                f"{sorted(stray)} (enabled: {list(self._enabled)})")

    def _apply_batch(self, nodes: Sequence[int]) -> None:
        """Apply the cached proposals of ``nodes`` simultaneously.

        Callers settle the incremental state first (both callers refresh
        before selecting), so the gather is a plain proposal-table read.
        """
        # gather first: every write must be based on the pre-step state
        proposal = self._proposal
        dirty = self._dirty
        if len(nodes) == 1:  # central-daemon fast path
            v = nodes[0]
            delta = proposal[v]
            writes = [(v, delta)] if delta is not None else []
        else:
            writes = []
            for v in nodes:
                delta = proposal[v]
                if delta is not None:
                    writes.append((v, delta))
        rows = self.rows
        bulk = len(writes) >= self._bulk_dirty
        impact = None if bulk else self._write_impact
        olds = [] if impact is not None else None
        for v, delta in writes:
            row = rows[v]
            if olds is not None:
                # the impact filter compares against pre-write values
                olds.append({s: row[s] for s in delta})
            for s, val in delta.items():
                row[s] = val
        if bulk:
            # bulk batch (synchronous round): one flag
            # instead of per-write neighborhood set maintenance
            if writes:
                self._dirty_all = True
        else:
            net = self.net
            adjacency = net.adjacency
            # settles_after_move: a mover provably lands disabled, so it
            # skips re-evaluation and retires from the enabled set below —
            # unless another mover in its neighborhood may re-enable it
            # this very batch.  (Movers are pairwise non-adjacent to any
            # settled node, so no same-batch write can dirty one.)
            if not self._settles:
                settled = ()
            elif len(writes) == 1:
                settled = (writes[0][0],)
            else:
                movers = {v for v, _ in writes}
                nbr_set = net.neighbor_set
                settled = tuple(v for v in movers
                                if movers.isdisjoint(nbr_set(v)))
            settled_set = set(settled)
            if impact is not None:
                for (v, delta), old in zip(writes, olds):
                    if v not in settled_set:
                        dirty.add(v)
                    nbrs = impact(net, rows, v, delta, old, proposal)
                    # None = the filter declines: full neighborhood
                    dirty.update(adjacency[v] if nbrs is None else nbrs)
            else:
                for v, _ in writes:
                    # invalidate proposals in the write neighborhood
                    if v not in settled_set:
                        dirty.add(v)
                    dirty.update(adjacency[v])
            if settled:
                proposal_table = proposal
                eset = self._enabled._set
                elist = self._enabled._list
                retired: list[int] = []
                for v in settled:
                    proposal_table[v] = None
                    if v in eset:
                        eset.remove(v)
                        del elist[bisect_left(elist, v)]
                        retired.append(v)
                if retired:
                    self.stat_settle_retired += len(retired)
                    if self._pending is not None:
                        self._pending.difference_update(retired)
        self.moves += len(writes)
        # read the invariant live: callers may legitimately attach one
        # after construction
        if writes and self.invariant is not None \
                and not self.invariant(self.net, self.config):
            self._invariant_violations += 1

    def run_round(self, max_moves: int | None = None) -> bool:
        """Execute one full round.  Returns False if already silent.

        A round completes when every node that was enabled at the start has
        stepped or been neutralized by a neighbor's step.  A generous
        default move budget turns scheduler-starvation livelocks into
        diagnosable errors instead of hangs.
        """
        self._refresh()
        if not self._enabled:
            return False
        self._round_loop(max_moves, self.scheduler.select, self._refresh,
                         True)
        return True

    def _round_loop(self, max_moves: int | None, select, refresh,
                    fuse: bool) -> None:
        """The select loop of one round that has enabled nodes.

        ``select`` and ``refresh`` are the daemon's ``select`` and
        :meth:`_refresh`, or the observed round's counting wrappers.
        With ``fuse`` the central-daemon common case (one write, a
        handful of neighborhood re-proposals) is applied inline and
        re-proposed through the kernel, skipping the _apply_batch and
        _refresh frames and the dirty-set round trip.  State evolution is
        identical either way: same writes, same proposals, same
        enabled-set contents at every select.
        """
        if max_moves is None:
            max_moves = 200 * self.net.n * self.net.n_bound + 10_000
        budget = max_moves
        pending = set(self._enabled)
        self._pending = pending  # the kernel prunes nodes that become disabled
        validate = self._validate_selection
        apply_batch = self._apply_batch
        enabled = self._enabled
        eset = enabled._set
        elist = enabled._list
        pick = None
        if fuse:
            net = self.net
            config = self.config
            rows = self.rows
            proposal = self._proposal
            adjacency = net.adjacency
            impact = self._write_impact
            settles = self._settles
            repropose = self._repropose
            # latched for the round (reassigning them mid-round from an
            # invariant callback is not a supported pattern)
            invariant = self.invariant
            # central daemons state their choice as ``pick`` (``select``
            # is that node alone); it returns a member of the enabled set
            # by construction, so the fused path skips the list-of-one
            # round trip and the membership re-check
            pick = getattr(self.scheduler, "pick", None)
        try:
            while pending:
                if self._dirty_all or self._dirty:
                    refresh()
                    if not pending:
                        break
                if pick is not None:
                    v = pick(enabled)
                else:
                    chosen = select(enabled)
                    # a copy of the live enabled list (the synchronous
                    # daemon) is valid by construction, and non-empty
                    # while the round's pending subset of it is
                    if ((len(chosen) != 1 or chosen[0] not in eset)
                            and chosen != elist):
                        validate(chosen)  # raises unless a valid batch
                    v = chosen[0] if len(chosen) == 1 else None
                if v is None or not fuse:
                    apply_batch(chosen)
                    pending.difference_update(chosen)
                    budget -= len(chosen)
                else:
                    delta = proposal[v]
                    row = rows[v]
                    if impact is not None:
                        # capture + write in one pass (the filter
                        # compares against the displaced values)
                        old = {}
                        for s, val in delta.items():
                            old[s] = row[s]
                            row[s] = val
                    else:
                        for s, val in delta.items():
                            row[s] = val
                    self.moves += 1
                    if settles:
                        # the mover provably landed disabled: retire
                        proposal[v] = None
                        eset.remove(v)
                        del elist[bisect_left(elist, v)]
                    targets = (impact(net, rows, v, delta, old, proposal)
                               if impact is not None else None)
                    if targets is None:
                        targets = adjacency[v]
                    if not settles:
                        targets = [*targets, v]
                    repropose(targets)
                    pending.discard(v)
                    if invariant is not None and not invariant(net, config):
                        self._invariant_violations += 1
                    budget -= 1
                if budget <= 0:
                    raise RuntimeError(
                        f"round exceeded {max_moves} moves "
                        f"(protocol={self.protocol.name}, n={self.net.n})"
                    )
        finally:
            self._pending = None
        self.rounds += 1

    def _run_round_observed(self, max_moves: int | None = None) -> bool:
        """``run_round`` with per-round telemetry — the recorder's loop.

        Installed as this instance's ``run_round`` at construction when a
        recorder is attached (see ``__init__``).  Runs :meth:`_round_loop`
        with counting ``select``/``refresh`` wrappers and unfused, so every
        move goes through :meth:`_apply_batch`, whose settle retirements
        the row counts.  A central daemon's ``select`` is its ``pick``
        alone, so an observed run replays the unobserved moves in the same
        order.
        """
        self._refresh()
        enabled_start = len(self._enabled)
        if not enabled_start:
            return False
        moves, settled = self.moves, self.stat_settle_retired
        select, refresh = self.scheduler.select, self._refresh
        counts = [0, 0]  # selections, dirty peak

        def counted_select(enabled):
            counts[0] += 1
            return select(enabled)

        def counted_refresh():
            d = self.net.n if self._dirty_all else len(self._dirty)
            counts[1] = max(counts[1], d)
            refresh()

        self._round_loop(max_moves, counted_select, counted_refresh, False)
        # settle so the row reports the round-edge enabled count (the next
        # round's opening refresh becomes a no-op)
        self._refresh()
        self._obs.on_round(
            self, moves=self.moves - moves, enabled_start=enabled_start,
            enabled_end=len(self._enabled), selections=counts[0],
            dirty_peak=counts[1], settled=self.stat_settle_retired - settled)
        return True

    def step(self, nodes: Sequence[int]) -> None:
        """One daemon step: ``nodes`` step simultaneously.

        Settles the incremental state, enforces the daemon contract
        (non-empty, duplicate-free, every node enabled; RuntimeError
        otherwise), then applies the nodes' proposals, each computed
        off the pre-step configuration.  Does not advance the round
        counter.
        """
        self._refresh()
        self._validate_selection(nodes)
        self._apply_batch(nodes)

    def run_steps(self, max_moves: int) -> int:
        """Execute daemon steps until silence or ``max_moves`` moves.

        Sub-round granularity for callers that need a *move* budget
        rather than a round budget.  Does not advance the round counter
        — rounds are a property of complete-round executions.  The
        budget is checked between daemon steps, so a multi-node
        selection may overshoot it by at most one batch.

        Returns the number of moves applied.
        """
        if max_moves < 1:
            raise ValueError(f"max_moves must be >= 1, got {max_moves}")
        start = self.moves
        while self.moves - start < max_moves and not self.is_silent():
            self.step(self.scheduler.select(self._enabled))
        return self.moves - start

    def run(
        self,
        max_rounds: int,
        stop_when: Callable[[Network, Config], bool] | None = None,
        max_moves_per_round: int | None = None,
    ) -> RunResult:
        """Run until silence, the predicate, or the round budget.

        Raises RuntimeError if ``max_rounds`` rounds end neither silent
        nor with ``stop_when`` holding: a self-stabilizing run that does
        not converge within its budget is a failure, not a result.
        """
        stopped = False
        for _ in range(max_rounds):
            if stop_when is not None and stop_when(self.net, self.config):
                stopped = True
                break
            progressed = self.run_round(max_moves=max_moves_per_round)
            if not progressed:
                break
        else:
            # the budget ran out: fine if its last round reached the goal
            if stop_when is not None and stop_when(self.net, self.config):
                stopped = True
            elif not self.is_silent():
                raise RuntimeError(
                    f"no convergence within {max_rounds} rounds "
                    f"(protocol={self.protocol.name}, n={self.net.n}, "
                    f"scheduler={self.scheduler.name}, "
                    f"enabled={len(self.enabled_nodes())})"
                )
        return RunResult(
            rounds=self.rounds,
            moves=self.moves,
            silent=self.is_silent(),
            stopped_by_predicate=stopped,
            invariant_violations=self._invariant_violations,
        )

    def confirm_silent(self, extra_rounds: int = 3) -> bool:
        """Certify silence: no node is enabled, now and after prodding.

        Because enabledness is a pure function of the configuration, one
        check suffices; the extra rounds assert that running the engine
        does not manufacture moves.
        """
        if not self.is_silent():
            return False
        before = self.moves
        for _ in range(extra_rounds):
            if self.run_round():
                return False
        return self.moves == before

    # ------------------------------------------------------------------
    # external writes and topology rebinding
    # ------------------------------------------------------------------

    def write(self, node: int, slot_delta: Mapping[int, object]) -> bool:
        """Write slot values into one node's register outside a step.

        The one external write path: fault injection (:meth:`overwrite`),
        the dynamics engine's interrupt section and the shard workers'
        halo rows all land here.  Marks the node's closed neighborhood
        dirty when a value changed, so the incremental enabled set stays
        coherent; returns whether one did.
        """
        row = self.rows.get(node)
        if row is None:
            raise KeyError(
                f"unknown node {node!r}: not a node of this network "
                f"(n={self.net.n})")
        changed = False
        for s, val in slot_delta.items():
            if row[s] != val:
                row[s] = val
                changed = True
        if changed:
            self._dirty.add(node)
            self._dirty.update(self.net.neighbors(node))
        return changed

    def overwrite(self, node: int, updates: Mapping[str, object]) -> None:
        """Adversarially overwrite parts of one node's register.

        Updates are name-keyed (the boundary shape), translated to
        slots through the schema and written with :meth:`write`.
        """
        index = self.schema.index
        unknown = set(updates) - set(index)
        if unknown:
            raise KeyError(f"unknown fields: {sorted(unknown)}")
        self.write(node, {index[name]: val for name, val in updates.items()})

    def rebind(self, net: Network, touched: Sequence[int], *,
               removed: Iterable[int] = (),
               joiners: Mapping[int, Mapping[str, object]] | None = None,
               invalidate: bool = False) -> None:
        """Move the engine onto ``net``, a revision of its network.

        Surviving nodes keep their register rows by identity.  The
        ``removed`` nodes (absent from ``net``) lose their rows, views,
        neighbor rows, proposals and dirty- and enabled-set entries;
        each of the ``joiners`` (new in ``net``) gets a row encoded from
        its name-keyed register.  ``touched`` names the nodes whose
        neighborhood changed, joiners included: their neighbor rows are
        rebuilt and they are marked dirty, or, with ``invalidate``,
        every cached proposal is.

        Raises RuntimeError mid-round (the active round's pending set
        was computed against the old network) and ValueError when the
        protocol's register layout on ``net`` differs (rows carry
        forward positionally); either way the engine is left as it was.
        """
        if self._pending is not None:
            raise RuntimeError(
                "cannot rebind mid-round: the active round's pending set "
                "was computed against the old network.  Rebind between "
                "run_round() calls.")
        spec = self.protocol.register_spec(net)
        schema = spec.schema()
        if tuple(schema.names) != tuple(self.schema.names):
            raise ValueError(
                f"register layout changed across the revision "
                f"({list(self.schema.names)} -> {list(schema.names)}); "
                f"rows are carried forward positionally")
        rows, config = self.rows, self.config
        eset, elist = self._enabled._set, self._enabled._list
        for v in removed:
            del rows[v], config[v], self._nbr_rows[v]
            self._proposal.pop(v, None)
            self._dirty.discard(v)
            if v in eset:
                eset.remove(v)
                del elist[bisect_left(elist, v)]
        self.spec, self.schema = spec, schema
        if joiners:
            names = schema.names
            for v, state in joiners.items():
                rows[v] = [state[name] for name in names]
                config[v] = schema.view(rows[v])
        self._bind(net, touched)
        if invalidate:
            self._dirty_all = True
            self._dirty.clear()
        else:
            self._dirty.update(touched)
