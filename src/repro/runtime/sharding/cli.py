"""``python -m repro shard`` — partition planning and the equivalence gate.

::

    python -m repro shard plan implicit-grid:rows=1000,cols=1000 8
    python -m repro shard plan random:n=512,seed=42 4
    python -m repro shard verify --shards 1,2,4,8
    python -m repro shard verify --topology implicit-grid:rows=32,cols=32 \
        --protocol guided-bfs --shards 2,4

``plan`` prints a partition with its quality metrics — cut size,
per-shard boundary width, balance — plus the fingerprint campaign
records carry.  ``verify`` is the equivalence gate CI runs: the sharded
execution must reproduce the single-process moves, rounds, silence, and
final-configuration digest exactly, at every requested shard count.
Topology specs resolve through
:func:`repro.experiments.registry.build_topology_spec`.  A sharded run
with a trace is the ``sharded-scale`` campaign analysis (or ``obs
record`` of a sharded pinned workload).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import (
    PROTOCOLS,
    build_protocol,
    build_topology_spec,
)
from repro.runtime.sharding.engine import (
    ShardedSimulator,
    single_process_reference,
)
from repro.runtime.sharding.partition import plan_partition

__all__ = ["register_shard"]

#: the pinned verify workload: the acceptance topology (the 512-node
#: random graph of ``acceptance-sst-512``) under the synchronous daemon
#: with per-node arbitrary initialization
_PINNED_TOPOLOGY = "random:n=512,seed=42"
_PINNED_INIT_SEED = 7


def _build_topo(spec: str):
    try:
        return build_topology_spec(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _plan(topo, k: int):
    try:
        return plan_partition(topo, k)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _shard_counts(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(f"error: --shards takes comma-separated "
                         f"integers, got {text!r}") from None


def _protocol_factory(name: str):
    if name not in PROTOCOLS:
        raise SystemExit(f"error: unknown protocol {name!r}; "
                         f"known: {', '.join(sorted(PROTOCOLS))}")

    def factory():
        return build_protocol(name)[0]

    return factory


def _cmd_plan(args: argparse.Namespace) -> int:
    topo = _build_topo(args.topology)
    plan = _plan(topo, args.k)
    info = plan.describe()
    print(f"partition of {args.topology} into {plan.k} shards "
          f"({plan.method}):")
    for key in ("n", "sizes", "balance", "cut_edges", "boundary",
                "max_boundary", "fingerprint"):
        print(f"  {key:13} {info[key]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    counts = _shard_counts(args.shards)
    topo = _build_topo(args.topology)
    # every count is checked before any run or worker starts
    plans = {k: _plan(topo, k) for k in counts}
    factories = {name: _protocol_factory(name)
                 for name in args.protocol or ["sst"]}
    failures = 0
    for proto_name, factory in factories.items():
        ref = single_process_reference(topo, factory,
                                       init_seed=args.init_seed,
                                       max_rounds=args.max_rounds)
        print(f"{proto_name}: single-process reference "
              f"rounds={ref[0]} moves={ref[1]} silent={ref[2]} "
              f"digest={ref[3]}")
        for k in counts:
            with ShardedSimulator(topo, factory, plans[k],
                                  init_seed=args.init_seed) as sharded:
                res = sharded.run(max_rounds=args.max_rounds)
            got = (res.rounds, res.moves, res.silent, res.fingerprint)
            if got == ref:
                print(f"  k={k}: OK (bit-identical)")
            else:
                failures += 1
                print(f"  k={k}: MISMATCH sharded rounds={res.rounds} "
                      f"moves={res.moves} silent={res.silent} "
                      f"digest={res.fingerprint}", file=sys.stderr)
    if failures:
        print(f"shard verify: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print("shard verify: all sharded runs bit-identical to single-process")
    return 0


def register_shard(subparsers) -> None:
    """Attach the ``shard`` subcommand to ``python -m repro``."""
    shard = subparsers.add_parser(
        "shard", help="partitioned shard-parallel execution")
    ssub = shard.add_subparsers(dest="subcommand", required=True)

    p_plan = ssub.add_parser(
        "plan", help="partition a topology and print the plan")
    p_plan.add_argument("topology",
                        help="topology spec, e.g. "
                             "implicit-grid:rows=1000,cols=1000 or "
                             "random:n=512,seed=42")
    p_plan.add_argument("k", type=int, help="shard count")
    p_plan.set_defaults(fn=_cmd_plan)

    p_verify = ssub.add_parser(
        "verify",
        help="equivalence gate: sharded must be bit-identical to "
             "single-process")
    p_verify.add_argument("--topology", default=_PINNED_TOPOLOGY)
    p_verify.add_argument("--protocol", action="append",
                          help="protocol(s) to verify (repeatable; "
                               "default sst)")
    p_verify.add_argument("--shards", default="1,2,4,8",
                          help="comma-separated shard counts")
    p_verify.add_argument("--init-seed", type=int,
                          default=_PINNED_INIT_SEED)
    p_verify.add_argument("--max-rounds", type=int, default=10_000)
    p_verify.set_defaults(fn=_cmd_verify)
