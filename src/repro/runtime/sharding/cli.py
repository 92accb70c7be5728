"""``python -m repro shard`` — partition planning and sharded runs.

::

    python -m repro shard plan implicit-grid:rows=1000,cols=1000 8
    python -m repro shard plan random:n=512,seed=42 4 --out plan.json
    python -m repro shard run --topology implicit-grid:rows=250,cols=400 \
        --protocol sst --shards 4 --rounds 8
    python -m repro shard verify --shards 1,2,4,8

``plan`` prints (and optionally persists) a partition with its quality
metrics — cut size, per-shard boundary width, balance — plus the
fingerprint campaign specs pin partitions by.  ``run`` executes one
sharded workload, one worker process per shard.  ``verify`` is the
equivalence gate CI runs: the
sharded execution must reproduce the single-process moves, rounds,
silence, and final-configuration digest exactly, at every requested
shard count.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from repro.graphs.implicit import IMPLICIT_TOPOLOGIES, build_topology
from repro.runtime.sharding.engine import (
    ShardedSimulator,
    single_process_reference,
)
from repro.runtime.sharding.partition import ShardPlan, plan_partition

__all__ = ["register_shard", "build_topology_spec", "parse_topology_spec"]

#: the pinned verify workload: the acceptance topology (the 512-node
#: random graph of ``acceptance-sst-512``) under the synchronous daemon
#: with per-node arbitrary initialization
_PINNED_TOPOLOGY = "random:n=512,seed=42"
_PINNED_INIT_SEED = 7


def parse_topology_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Parse ``name:key=val,key=val`` into (name, params)."""
    name, _, rest = spec.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(
                    f"bad topology parameter {part!r} (expected key=value)")
            try:
                params[key.strip()] = int(val)
            except ValueError:
                raise ValueError(
                    f"topology parameter {key!r} must be an integer, "
                    f"got {val!r}") from None
    return name, params


def build_topology_spec(spec: str):
    """Build a topology from a spec string.

    ``implicit-*`` names resolve through the lazy family
    (:mod:`repro.graphs.implicit`); everything else materializes through
    the experiments registry with a fixed rng (a ``seed`` parameter in
    the spec pins the draw).  Also the seam the ``sharded-scale``
    campaign analysis addresses topologies through.
    """
    name, params = parse_topology_spec(spec)
    if name in IMPLICIT_TOPOLOGIES:
        return build_topology(name, params)
    from repro.experiments.registry import TOPOLOGIES, build_network
    if name not in TOPOLOGIES:
        known = sorted(TOPOLOGIES) + sorted(IMPLICIT_TOPOLOGIES)
        raise ValueError(f"unknown topology {name!r}; "
                         f"known: {', '.join(known)}")
    return build_network(name, params, random.Random(0))


def _build_topo(spec: str):
    try:
        return build_topology_spec(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _protocol_factory(name: str):
    from repro.experiments.registry import PROTOCOLS
    if name not in PROTOCOLS:
        raise SystemExit(f"error: unknown protocol {name!r}; "
                         f"known: {', '.join(sorted(PROTOCOLS))}")

    def factory():
        from repro.experiments.registry import build_protocol
        return build_protocol(name)[0]

    return factory


def _cmd_plan(args: argparse.Namespace) -> int:
    topo = _build_topo(args.topology)
    plan = plan_partition(topo, args.k)
    info = plan.describe()
    print(f"partition of {args.topology} into {plan.k} shards "
          f"({plan.method}):")
    for key in ("n", "sizes", "balance", "cut_edges", "boundary",
                "max_boundary", "fingerprint"):
        print(f"  {key:13} {info[key]}")
    if args.out:
        Path(args.out).write_text(plan.to_json())
        print(f"plan written to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    topo = _build_topo(args.topology)
    if args.plan:
        plan = ShardPlan.from_json(Path(args.plan).read_text())
        if plan.n != topo.n:
            raise SystemExit(f"error: plan covers {plan.n} nodes, "
                             f"topology has {topo.n}")
    else:
        plan = plan_partition(topo, args.shards)
    factory = _protocol_factory(args.protocol)

    recorder = None
    if args.trace:
        from repro.obs.probes import TraceRecorder
        recorder = TraceRecorder(
            args.trace, header_extra={"topology": args.topology})

    # live progress: rounds-to-silence ticking on a terminal (rewriting
    # one status line), plain per-round lines when piped
    tty = sys.stderr.isatty()

    def hook(round_no, moves, per_shard):
        line = f"round {round_no}: {moves} moves ({len(per_shard)} shards)"
        if tty:
            print(f"\r  {line}\x1b[K", end="", file=sys.stderr, flush=True)
        elif not args.quiet:
            print(f"  {line}", file=sys.stderr, flush=True)

    try:
        with ShardedSimulator(topo, factory, plan,
                              init_seed=args.init_seed) as sharded:
            result = sharded.run(
                max_rounds=args.rounds,
                require_silence=not args.no_silence,
                round_hook=hook,
                recorder=recorder)
    finally:
        if tty:
            print("\r\x1b[K", end="", file=sys.stderr, flush=True)
    print(f"{args.protocol} on {args.topology}, k={plan.k} "
          f"({plan.method}, fingerprint {plan.fingerprint}):")
    print(f"  rounds        {result.rounds}")
    print(f"  moves         {result.moves}")
    print(f"  silent        {result.silent}")
    print(f"  config digest {result.fingerprint}")
    print(f"  shard moves   {result.shard_moves}")
    print(f"  peak RSS KiB  {result.peak_rss_kb}")
    if args.trace:
        print(f"  convergence trace written to {args.trace} "
              f"(render: python -m repro obs report {args.trace})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    topo = _build_topo(args.topology)
    counts = [int(x) for x in args.shards.split(",")]
    failures = 0
    for proto_name in args.protocol or ["sst"]:
        factory = _protocol_factory(proto_name)
        ref = single_process_reference(topo, factory,
                                       init_seed=args.init_seed,
                                       max_rounds=args.max_rounds)
        print(f"{proto_name}: single-process reference "
              f"rounds={ref[0]} moves={ref[1]} silent={ref[2]} "
              f"digest={ref[3]}")
        for k in counts:
            with ShardedSimulator(topo, factory, plan_partition(topo, k),
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
        "plan", help="partition a topology and print/persist the plan")
    p_plan.add_argument("topology",
                        help="topology spec, e.g. "
                             "implicit-grid:rows=1000,cols=1000 or "
                             "random:n=512,seed=42")
    p_plan.add_argument("k", type=int, help="shard count")
    p_plan.add_argument("--out", metavar="PATH",
                        help="persist the full plan as JSON")
    p_plan.set_defaults(fn=_cmd_plan)

    p_run = ssub.add_parser("run", help="run one sharded workload")
    p_run.add_argument("--topology", required=True)
    p_run.add_argument("--protocol", required=True)
    p_run.add_argument("--shards", type=int, default=4)
    p_run.add_argument("--plan", metavar="PATH",
                       help="load a persisted plan instead of --shards")
    p_run.add_argument("--init-seed", type=int, default=_PINNED_INIT_SEED)
    p_run.add_argument("--rounds", type=int, default=10_000,
                       help="round budget")
    p_run.add_argument("--no-silence", action="store_true",
                       help="treat the budget as a target, not a failure "
                            "(bounded-round scale runs)")
    p_run.add_argument("--trace", metavar="PATH",
                       help="stream the unified convergence trace here "
                            "(repro.obs JSONL schema; replaces the old "
                            "bespoke --stream format)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-round progress on stderr")
    p_run.set_defaults(fn=_cmd_run)

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
