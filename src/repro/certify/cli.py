"""``python -m repro certify`` — the local-certification command line.

::

    python -m repro certify check            # accept legit + reject corruptions
    python -m repro certify check --smoke    # CI-sized instances
    python -m repro certify space            # bits-per-node vs the paper bounds
    python -m repro certify space --format markdown
    python -m repro certify modelcheck --n 4 # exhaustive daemon-choice check
    python -m repro certify modelcheck --task sst --n 5

``check`` verifies, for every certified task, that (1) the certificate
assigner's decoration of the legitimate configuration is accepted by
every node's local verifier using neighborhood-only reads, and (2) every
sampled single-register corruption of it is rejected by at least one
node — or lands on another configuration that is itself certified *and*
legal (e.g. an equally-deep alternative BFS parent).  Any corruption
that is accepted while illegal is a certificate fake and fails the run.

``modelcheck`` explores the full daemon nondeterminism at small n (every
non-empty subset of enabled nodes) from the legitimate configuration and
its corruptions, proving closure + convergence within the explored
region; a truncated exploration that found no violation is reported as
``bounded`` and only fails with ``--strict``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table
from repro.certify.schemes import CERTIFIERS, single_register_corruptions

__all__ = ["register_certify"]


def _tasks(args: argparse.Namespace) -> list[str]:
    if args.task:
        unknown = [t for t in args.task if t not in CERTIFIERS]
        if unknown:
            raise SystemExit(
                f"error: unknown tasks {unknown} "
                f"(known: {', '.join(sorted(CERTIFIERS))})")
        return list(args.task)
    return list(CERTIFIERS)


def _cmd_check(args: argparse.Namespace) -> int:
    import random
    n = args.n or (8 if args.smoke else 12)
    draws = args.draws or (2 if args.smoke else 4)
    rows = []
    failures = 0
    for task in _tasks(args):
        cert = CERTIFIERS[task]
        net = cert.build_network(n, seed=args.seed)
        legit = cert.legitimate(net)
        accepted = cert.verify(net, legit).accepted
        rejected = escaped = fakes = 0
        rng = random.Random(args.seed + 1)
        for v, field, value in single_register_corruptions(
                net, cert, legit, rng, draws=draws):
            cfg = {u: dict(s) for u, s in legit.items()}
            cfg[v][field] = value
            out = cert.verify(net, cfg)
            if not out.accepted:
                rejected += 1
            elif cert.is_legal(net, cfg):
                escaped += 1
            else:
                fakes += 1
        ok = accepted and fakes == 0
        if not ok:
            failures += 1
        rows.append((task, net.n, "yes" if accepted else "NO",
                     rejected, escaped, fakes, "ok" if ok else "FAILED"))
    print(format_table(
        "local certification: legitimate accepted, corruptions rejected "
        "(neighborhood-only verifiers)",
        ["task", "n", "legit accepted", "rejected", "legal escapes",
         "FAKES", "verdict"],
        rows))
    if failures:
        print(f"certify check FAILED for {failures} task(s)", file=sys.stderr)
        return 1
    print("certify check ok: all local verifiers sound on these instances")
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    from repro.certify.space import render_space_table, space_rows
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rows = space_rows(sizes=sizes, tasks=_tasks(args), seed=args.seed)
    print(render_space_table(rows, markdown=args.format == "markdown"))
    return 0


def _cmd_modelcheck(args: argparse.Namespace) -> int:
    from repro.certify.modelcheck import check_certifier
    n = args.n or 4
    failures = truncated = 0
    for task in _tasks(args):
        res = check_certifier(
            CERTIFIERS[task], n=n, seed=args.seed,
            corruption_draws=args.draws or 1,
            max_corruptions=args.max_corruptions,
            max_states=args.max_states,
            shared_oracle=args.shared_oracle)
        if res.truncated and res.ok_except_truncation:
            truncated += 1
        elif not res.ok:
            failures += 1
        print(f"{task:14s} {res.summary()}", flush=True)
    if failures:
        print(f"modelcheck FAILED for {failures} task(s)", file=sys.stderr)
        return 1
    if truncated and args.strict:
        print(f"modelcheck: {truncated} task(s) truncated with --strict",
              file=sys.stderr)
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", action="append", metavar="NAME",
                        help=f"restrict to one task (repeatable; known: "
                             f"{', '.join(sorted(CERTIFIERS))})")
    parser.add_argument("--seed", type=int, default=1,
                        help="instance/corruption seed (default 1)")


def register_certify(subparsers) -> None:
    """Attach the ``certify`` subcommand to the ``python -m repro`` parser."""
    p = subparsers.add_parser(
        "certify",
        help="local certification: verifiers, space table, model checker")
    sub = p.add_subparsers(dest="certify_command", required=True)

    p_check = sub.add_parser(
        "check", help="accept legitimate configs, reject corruptions")
    _add_common(p_check)
    p_check.add_argument("--n", type=int, default=None,
                         help="instance size (default 12; 8 with --smoke)")
    p_check.add_argument("--draws", type=int, default=None,
                         help="corruption draws per field (default 4; "
                              "2 with --smoke)")
    p_check.add_argument("--smoke", action="store_true",
                         help="CI-sized instances")
    p_check.set_defaults(fn=_cmd_check)

    p_space = sub.add_parser(
        "space", help="bits-per-node accounting vs the paper bounds")
    _add_common(p_space)
    p_space.add_argument("--sizes", default="16,64,256",
                         help="comma-separated n sweep (default 16,64,256)")
    p_space.add_argument("--format", choices=("ascii", "markdown"),
                         default="ascii")
    p_space.set_defaults(fn=_cmd_space)

    p_mc = sub.add_parser(
        "modelcheck",
        help="exhaustive small-n daemon-choice closure/convergence check")
    _add_common(p_mc)
    p_mc.add_argument("--n", type=int, default=None,
                      help="instance size (default 4; keep <= 6)")
    p_mc.add_argument("--draws", type=int, default=None,
                      help="corruption draws per field (default 1)")
    p_mc.add_argument("--max-corruptions", type=int, default=None,
                      help="cap the number of corrupted starting configs")
    p_mc.add_argument("--max-states", type=int, default=200_000,
                      help="state budget per task (default 200000)")
    p_mc.add_argument("--strict", action="store_true",
                      help="fail on truncated (bounded) explorations too")
    p_mc.add_argument("--shared-oracle", action="store_true",
                      help="share one protocol instance across branches "
                           "(oracle-adversary over-approximation; "
                           "violations need confirmation against real "
                           "semantics)")
    p_mc.set_defaults(fn=_cmd_modelcheck)
