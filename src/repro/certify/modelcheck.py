"""Exhaustive small-n model checking of the verifier-equipped protocols.

For a small instance (n <= 6) the full nondeterminism of the unfair
scheduler is enumerable: from any configuration, the daemon may activate
*every* non-empty subset of the enabled nodes.  :func:`explore` builds
the reachable state graph from a set of starting configurations under
all of those choices and checks the two halves of silent
self-stabilization plus the certification contract:

* **convergence** — the reachable graph contains no cycle among
  non-silent configurations (a cycle is a daemon strategy that runs
  forever, i.e. a livelock witness, which is returned); since silent
  configurations are sinks, acyclicity means every maximal execution
  under every daemon reaches silence;
* **closure / correctness** — every reachable silent configuration is
  legal for the task;
* **no fakes** — on every reachable silent configuration the local
  verifiers' verdict (after certificate assignment) agrees with the
  ground-truth legality predicate, i.e. no reachable configuration a
  corrupted start can produce fools the certificate scheme.

Every state is expanded by the protocol's one slot rule
(:meth:`~repro.runtime.protocol.Protocol.fast_step_slots`, the rule the
engine runs).
States are tuples of slot-row tuples in ascending node order; a state's
successors patch only the movers' rows.

Oracle-state semantics, recorded here once.  The guided tasks keep
detector bookkeeping as protocol-instance state (the digest-keyed memo,
the issued-decision latch, guided-mdst's improvement plan —
EXPERIMENTS.md, "Substitutions", substitution 6).  :func:`explore`
therefore supports two modes:

* **fresh instances** (``protocol_factory=``; the default of
  :func:`check_certifier` and of ``certify modelcheck``): every state
  expansion compiles the rule of a new protocol object, i.e. the
  ideal-detector semantics where each decision is a pure function of
  the configuration — the exact Markov state machine;
* **shared instance** (:func:`explore` without a factory, or
  ``check_certifier(shared_oracle=True)`` / ``--shared-oracle``): one
  protocol object serves every branch, so decisions reflect the
  memo/plan history induced by the exploration order.  This is an
  *over-approximation* of real executions — cross-branch pollution can
  produce oracle-answer histories no single execution realizes — which
  makes it a stronger bug-finder (it found all four PR-4 protocol bugs)
  but means a reported cycle must be confirmed against real semantics
  (e.g. by draining the witness state through the simulator) before
  being read as a protocol livelock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from repro.certify.schemes import (
    LocalCertifier,
    single_register_corruptions,
)
from repro.graphs.network import Network
from repro.runtime.protocol import Protocol, effective_delta
from repro.runtime.schema import SlotState

__all__ = ["ModelCheckResult", "explore", "check_certifier"]

Config = dict[int, dict[str, object]]


@dataclass
class ModelCheckResult:
    """Outcome of one exhaustive exploration."""

    states: int = 0
    transitions: int = 0
    silent_states: int = 0
    #: silent configurations that are not legal (closure violations)
    illegal_silent: list[Config] = field(default_factory=list)
    #: silent configurations where verifier verdict != legality (fakes)
    fake_certified: list[Config] = field(default_factory=list)
    #: a reachable non-silent cycle, as a list of configs (livelock)
    cycle: list[Config] | None = None
    truncated: bool = False
    #: distinct starting configurations, and how many of them the
    #: exploration expanded (a truncated one may leave starts unexplored)
    starts: int = 0
    starts_expanded: int = 0

    @property
    def ok(self) -> bool:
        return self.ok_except_truncation and not self.truncated

    @property
    def ok_except_truncation(self) -> bool:
        """No violation found (exploration may still have been bounded)."""
        return (not self.illegal_silent and not self.fake_certified
                and self.cycle is None)

    def summary(self) -> str:
        if self.ok:
            verdict = "OK"
        elif self.ok_except_truncation:
            verdict = "BOUNDED (no violation in explored region)"
        else:
            verdict = "FAILED"
        bits = [f"{self.states} states", f"{self.transitions} transitions",
                f"{self.silent_states} silent"]
        if self.truncated:
            bits.append("TRUNCATED (raise max_states)")
        if self.cycle is not None:
            bits.append(f"LIVELOCK cycle of length {len(self.cycle)}")
        if self.illegal_silent:
            bits.append(f"{len(self.illegal_silent)} illegal silent")
        if self.fake_certified:
            bits.append(f"{len(self.fake_certified)} certificate fakes")
        bits.append(f"starts covered {self.starts_expanded}/{self.starts}")
        return f"{verdict}: {', '.join(bits)}"


def _thaw(names: tuple[str, ...], nodes: list[int], key) -> Config:
    return {v: dict(zip(names, row)) for v, row in zip(nodes, key)}


def _subsets(items: list):
    for k in range(1, len(items) + 1):
        yield from combinations(items, k)


def explore(net: Network, protocol: Protocol, starts: list[Config],
            *, max_states: int = 50_000,
            is_legal=None, accepts=None,
            protocol_factory=None) -> ModelCheckResult:
    """Exhaustive daemon-choice exploration from ``starts`` (see module
    docstring).  ``is_legal(config)`` and ``accepts(config)`` are
    optional predicates for the closure and no-fake checks;
    ``protocol_factory`` switches to fresh-instance (Markov) semantics."""
    schema = protocol.register_spec(net).schema()
    names = schema.names
    nodes = sorted(net.nodes)
    position = {v: i for i, v in enumerate(nodes)}
    order = [(position[v], v) for v in net.nodes]
    shared_rule = protocol.fast_step_slots(schema) \
        if protocol_factory is None else None
    result = ModelCheckResult()
    succs: dict[object, list] = {}
    silent_keys: set = set()

    start_keys = [tuple(tuple(cfg[v][f] for f in names) for v in nodes)
                  for cfg in starts]

    frontier = [k for k in start_keys if k not in succs]
    while frontier:
        key = frontier.pop()
        if key in succs:
            continue
        if len(succs) >= max_states:
            result.truncated = True
            break
        rows = [list(row) for row in key]
        config = {v: SlotState(schema, rows[i]) for i, v in enumerate(nodes)}
        rule = shared_rule or protocol_factory().fast_step_slots(schema)
        moved = []
        for i, v in order:
            delta = effective_delta(rule, net, config, v)
            if delta is not None:
                row = list(key[i])
                for slot, val in delta.items():
                    row[slot] = val
                moved.append((i, tuple(row)))
        nexts = []
        if not moved:
            silent_keys.add(key)
            if is_legal is not None:
                plain = _thaw(names, nodes, key)
                if not is_legal(plain):
                    result.illegal_silent.append(plain)
                if accepts is not None:
                    if bool(accepts(plain)) != bool(is_legal(plain)):
                        result.fake_certified.append(plain)
        else:
            seen_next = set()
            for subset in _subsets(moved):
                nxt = list(key)
                for i, row in subset:
                    nxt[i] = row
                nkey = tuple(nxt)
                if nkey not in seen_next:
                    seen_next.add(nkey)
                    nexts.append(nkey)
            result.transitions += len(nexts)
        succs[key] = nexts
        for nkey in nexts:
            if nkey not in succs:
                frontier.append(nkey)

    result.states = len(succs)
    result.silent_states = len(silent_keys)
    distinct_starts = set(start_keys)
    result.starts = len(distinct_starts)
    result.starts_expanded = sum(k in succs for k in distinct_starts)

    # cycle search (iterative DFS, white/grey/black) over the explored
    # subgraph; unexplored frontier nodes (truncation) are treated as
    # leaves — with truncated=False the graph is complete.
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[object, int] = {}
    for root in succs:
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(succs.get(root, ())))]
        color[root] = GREY
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GREY:
                    # back edge: extract the cycle from the grey path
                    i = path.index(nxt)
                    result.cycle = [_thaw(names, nodes, k) for k in path[i:]]
                    return result
                if c == WHITE and nxt in succs:
                    color[nxt] = GREY
                    stack.append((nxt, iter(succs.get(nxt, ()))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return result


def check_certifier(certifier: LocalCertifier, n: int = 4, *,
                    seed: int = 1, corruption_draws: int = 2,
                    max_corruptions: int | None = None,
                    max_states: int = 50_000,
                    shared_oracle: bool = False) -> ModelCheckResult:
    """Model-check one task: closure at the certified legitimate
    configuration plus convergence from every sampled single-register
    corruption of it, under all daemon choices.

    Defaults to fresh-instance (Markov) semantics — the exact protocol
    state machine.  ``shared_oracle=True`` switches to the
    shared-instance over-approximation (see the module docstring): a
    stronger bug-finder whose violations must be confirmed against real
    semantics before being read as protocol bugs, since cross-branch
    memo pollution (including decision retirements from other branches)
    realizes oracle histories no single execution can.
    """
    net = certifier.build_network(n, seed=seed)
    proto = certifier.protocol()
    names = set(proto.register_spec(net).names)
    legit = certifier.legitimate(net)
    # strip assigner-only certificate fields: the dynamics run on the
    # protocol's registers; the static corruption suite covers the rest
    runtime = {v: {f: s for f, s in state.items() if f in names}
               for v, state in legit.items()}

    starts = [runtime]
    rng = random.Random(seed + 1)
    spec = proto.register_spec(net)
    count = 0
    for v, fld, value in single_register_corruptions(
            net, certifier, runtime, rng, draws=corruption_draws):
        if fld not in spec.names:
            continue
        if max_corruptions is not None and count >= max_corruptions:
            break
        count += 1
        cfg = {u: dict(s) for u, s in runtime.items()}
        cfg[v][fld] = value
        starts.append(cfg)

    def is_legal(config):
        return certifier.is_legal(net, config)

    def accepts(config):
        try:
            decorated = certifier.certify(net, config)
        except (ValueError, KeyError, TypeError):
            return False
        return certifier.verify(net, decorated).accepted

    return explore(net, proto, starts, max_states=max_states,
                   is_legal=is_legal, accepts=accepts,
                   protocol_factory=None if shared_oracle
                   else certifier.protocol)
