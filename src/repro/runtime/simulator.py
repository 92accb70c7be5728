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
and feeds the resulting adds/removes to the daemon through
:meth:`Scheduler.notify`.  A scheduler step therefore costs O(deg) proposal
recomputations per applied write instead of the O(n) full rescan the
previous engine performed before every ``select`` — the difference between
O(n·M) and O(Δ·M) Python work for an M-move central-daemon execution.
Large batches (synchronous rounds, mass faults) skip the per-write
bookkeeping entirely and raise a single *all-dirty* flag instead: one
refresh pass over the whole network replaces thousands of set inserts.
:meth:`Simulator.rescan_enabled` recomputes enabledness from scratch with
no caches (the same rule over freshly gathered neighbor rows), for
cross-checking the incremental state in tests.

Slot-indexed state
------------------

Node registers are stored as **slot rows** — plain lists indexed by the
:class:`~repro.runtime.schema.StateSchema` compiled once per
``(protocol, network)`` from the protocol's
:class:`~repro.runtime.registers.RegisterSpec`.  ``Simulator.config``
exposes the same storage as zero-copy
:class:`~repro.runtime.schema.SlotState` Mapping views, so name-keyed
callers (legality predicates, verifiers, metrics, tests) are unaffected.
Every protocol runs on the raw rows through one slot rule per binding
(:func:`~repro.runtime.protocol.slot_rule`): its compiled
:meth:`Protocol.fast_step_slots` rule, or else its name-keyed ``step``
bridged by :func:`adapt_step_to_slots`; the shard workers of
:mod:`repro.runtime.sharding` are Simulators too, so they bind the same
rule.  Configurations cross the boundary as plain dicts in both
directions (``config=`` input, :func:`random_configuration`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.graphs.network import Network
from repro.runtime.protocol import Protocol, effective_delta, slot_rule
from repro.runtime.scheduler import EnabledSet, Scheduler, SynchronousScheduler

__all__ = ["Simulator", "RunResult", "random_configuration"]

Config = dict[int, Mapping[str, object]]


def _effective(own: list, delta: dict[int, object]) -> dict[int, object] | None:
    """The slots of ``delta`` that change the row ``own``, or None.

    Enabledness is defined on effective writes, so proposals that restate
    current values are filtered here.  A new dict is allocated only when
    the delta mixes no-op and effective slots.
    """
    eff = 0
    for s, val in delta.items():
        if own[s] != val:
            eff += 1
    if eff == 0:
        return None
    if eff != len(delta):
        return {s: val for s, val in delta.items() if own[s] != val}
    return delta


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
        self._state = rows
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
        self._all_nodes: list[int] = sorted(net.nodes)
        # batch-aware bookkeeping: a write batch at least this large
        # (a synchronous round, a mass fault) raises the all-dirty flag
        # instead of performing per-write neighborhood set inserts — one
        # refresh pass per round replaces the per-batch bookkeeping.
        # Purely an accounting choice: refresh re-proposes a superset,
        # and re-proposing a clean node reproduces its cached proposal.
        self._bulk_dirty = max(4, net.n // 4)
        self._pending: set[int] | None = None  # the active round's pending set
        self._sched_synced = False
        # protocols declaring exact deltas skip the engine's no-op filter
        self._exact_deltas = bool(getattr(protocol, "exact_deltas", False))
        self._index = self.schema.index
        # the base-class Scheduler.notify is a no-op; skip the call frame
        # entirely unless the daemon actually overrides it
        self._notify = (self.scheduler.notify
                        if type(self.scheduler).notify is not Scheduler.notify
                        else None)
        # write-path contracts (Protocol.settles_after_move /
        # fast_write_impact): movers that provably land disabled retire
        # from the enabled set at apply time, and a compiled impact filter
        # narrows which neighbors a write re-dirties.  Both are soundness
        # claims about the rule itself.
        self._settles = bool(getattr(protocol, "settles_after_move", False))
        self._bind_rules()
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

    def _bind_rules(self, changed: Iterable[int] | None = None) -> None:
        """Compile the scalar rule path for the current binding.

        Runs at construction and again when the dynamics engine rebinds
        ``net``/``schema`` after a topology event.  Resolves the slot
        rule (:func:`~repro.runtime.protocol.slot_rule`), the per-node
        neighbor row table, the write-impact filter, and
        :attr:`_repropose` — the one per-node re-proposal kernel, bound
        here once so the hot paths pay one call per refresh or per fused
        move, not one per node.

        ``changed`` names the nodes whose neighborhood an event changed:
        only their neighbor rows are rebuilt (the caller drops a vanished
        node's entry).  ``None`` builds the whole table.
        """
        protocol, net, schema = self.protocol, self.net, self.schema
        rows = self._state
        rule = slot_rule(protocol, schema)
        self._slot_rule = rule
        # slot rows are mutated in place (never replaced) by _apply_batch
        # and overwrite, so these references stay valid for the binding
        if changed is None:
            self._nbr_rows = {}
            changed = net.nodes
        nbr_rows = self._nbr_rows
        for v in changed:
            nbr_rows[v] = tuple((u, rows[u]) for u in net.neighbors(v))
        self._write_impact = protocol.fast_write_impact(schema)
        config = self.config
        proposal = self._proposal
        dirty = self._dirty
        notify = self._notify
        effective = None if self._exact_deltas else _effective
        # engine-owned EnabledSet internals, updated in place (the
        # method-call indirection is measurable at this call rate)
        eset = self._enabled._set
        elist = self._enabled._list

        def repropose(items: Sequence[int]) -> None:
            """Re-propose ``items`` in order; feed the enabled-set deltas
            to the round's pending set and the scheduler."""
            added: list[int] = []
            removed: list[int] = []
            i = 0
            try:
                for i, v in enumerate(items):
                    # deltas are slot-keyed, so everything downstream
                    # (_apply_batch, the fused move) is index-only
                    own = rows[v]
                    delta = rule(net, config, v, own, nbr_rows[v])
                    if delta and effective is not None:
                        delta = effective(own, delta)
                    if delta:
                        proposal[v] = delta
                        if v not in eset:
                            eset.add(v)
                            insort(elist, v)
                            added.append(v)
                    else:
                        proposal[v] = None
                        if v in eset:
                            eset.remove(v)
                            del elist[bisect_left(elist, v)]
                            removed.append(v)
            except BaseException:
                # a raising rule must not desynchronize the engine: the
                # node that failed and everything unprocessed stay dirty,
                # while the transitions already made are delivered below
                # so mirror-keeping daemons stay coherent
                dirty.update(items[i:])
                raise
            finally:
                if removed and self._pending is not None:
                    self._pending.difference_update(removed)
                if ((added or removed) and notify is not None
                        and self._sched_synced):
                    notify(added, removed)

        self._repropose = repropose

    def _refresh(self) -> None:
        """Re-propose every dirty node, settling the incremental state.

        Cost is O(|dirty|) transition evaluations — O(deg) per write applied
        since the last refresh, or one O(n) pass when a bulk batch raised
        the all-dirty flag.  The kernel feeds the resulting enabled-set
        deltas to the scheduler's incremental hooks and prunes the active
        round's pending set.
        """
        if self._dirty_all:
            self._dirty_all = False
            self._dirty.clear()
            self._repropose(self._all_nodes)
        elif self._dirty:
            items = sorted(self._dirty)
            self._dirty.clear()
            self._repropose(items)
        if not self._sched_synced:
            self.scheduler.reset(self._enabled)
            self._sched_synced = True

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
        """Apply the cached proposals of ``nodes`` simultaneously."""
        # gather first: every write must be based on the pre-step state.
        # Settle the incremental state once up front (a no-op on the
        # run_round/run_steps paths, which refresh before selecting), so
        # the gather below is a plain proposal-table read per node.
        if self._dirty_all or self._dirty:
            self._refresh()
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
        rows = self._state
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
                    if self._sched_synced and self._notify is not None:
                        self._notify((), retired)
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
        # fused single-mover stepping is off for mirror-keeping daemons
        # (their notify contract is the general path's)
        self._round_loop(max_moves, self.scheduler.select, self._refresh,
                         self._notify is None)
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
            rows = self._state
            proposal = self._proposal
            adjacency = net.adjacency
            impact = self._write_impact
            settles = self._settles
            repropose = self._repropose
            # latched for the round (reassigning them mid-round from an
            # invariant callback is not a supported pattern)
            invariant = self.invariant
            # single-selection daemons expose ``pick`` (same distribution,
            # same RNG stream as select); it returns a member of the
            # enabled set by construction, so the fused path skips the
            # list-of-one round trip and the membership re-check
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
        the row counts.  Single-selection daemons' ``pick`` draws from the
        same RNG stream as ``select``, so an observed run replays the
        unobserved moves in the same order.
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

    def run_steps(self, max_moves: int) -> int:
        """Execute daemon steps until silence or ``max_moves`` moves.

        Sub-round granularity for callers that need a *move* budget on
        protocols whose rounds are huge (a pinned workload with only a
        move budget runs this way, see :mod:`repro.obs.workloads`).  Does not advance the round
        counter — rounds are a property of complete-round executions.
        The budget is checked between daemon steps, so a multi-node
        selection may overshoot it by at most one batch.

        Returns the number of moves applied.
        """
        if max_moves < 1:
            raise ValueError(f"max_moves must be >= 1, got {max_moves}")
        start = self.moves
        while self.moves - start < max_moves:
            self._refresh()
            if not self._enabled:
                break
            chosen = self.scheduler.select(self._enabled)
            if len(chosen) != 1 or chosen[0] not in self._enabled._set:
                self._validate_selection(chosen)
            self._apply_batch(chosen)
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
    # fault injection entry point
    # ------------------------------------------------------------------

    def overwrite(self, node: int, updates: Mapping[str, object]) -> None:
        """Adversarially overwrite parts of one node's register.

        Updates are name-keyed (the boundary shape) and written through
        the schema into the node's slot row.  Feeds the dirty set, so the
        incremental enabled set stays coherent across injected faults.
        """
        row = self._state.get(node)
        if row is None:
            raise KeyError(
                f"unknown node {node!r}: not a node of this network "
                f"(n={self.net.n})")
        index = self._index
        unknown = set(updates) - set(index)
        if unknown:
            raise KeyError(f"unknown fields: {sorted(unknown)}")
        for name, val in updates.items():
            row[index[name]] = val
        self._dirty.add(node)
        self._dirty.update(self.net.neighbors(node))
