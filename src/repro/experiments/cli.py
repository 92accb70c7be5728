"""``python -m repro`` — the unified command line.

::

    python -m repro campaign list
    python -m repro campaign run --smoke --workers 4
    python -m repro campaign run --campaign mst --store results/mst.jsonl
    python -m repro campaign status --campaign mst
    python -m repro campaign report --campaign mst --format markdown

``run`` is resumable: rerunning against the same store skips completed
runs (``0 executed`` on a finished campaign), and the records are
bit-identical for any ``--workers`` value, so a campaign can be spread
over machines or restarts freely.

``report`` also checks the paper's claim behind each experiment whose
runs are all stored, printing one verdict per experiment to stderr; it
exits 1 when a claim fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.analysis import format_table
from repro.experiments.campaigns import CAMPAIGNS, get_campaign
from repro.experiments.executor import run_campaign
from repro.experiments.report import claim_verdict, render_records
from repro.experiments.spec import Campaign
from repro.experiments.store import ResultStore

__all__ = ["main"]


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campaign", metavar="NAME",
                        help=f"named campaign "
                             f"({', '.join(sorted(CAMPAIGNS))})")
    parser.add_argument("--smoke", action="store_true",
                        help="shorthand for --campaign smoke")
    parser.add_argument("--root-seed", type=int, default=0,
                        help="campaign root seed (default 0); changing it "
                             "re-derives every run's randomness")
    parser.add_argument("--store", metavar="PATH",
                        help="JSONL result store "
                             "(default campaigns/<name>.jsonl)")


def _resolve_campaign(args: argparse.Namespace) -> Campaign:
    name = "smoke" if args.smoke else args.campaign
    if not name:
        raise SystemExit("error: pick a campaign (--campaign NAME or --smoke)")
    try:
        return get_campaign(name, root_seed=args.root_seed)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _resolve_store(args: argparse.Namespace, campaign: Campaign) -> ResultStore:
    path = args.store or Path("campaigns") / f"{campaign.name}.jsonl"
    return ResultStore(path)


def _trace_dir(store: ResultStore) -> str | None:
    """Where ``trace=1`` specs persist traces: next to the JSONL store.

    ``campaigns/smoke.jsonl`` gets ``campaigns/smoke.traces/`` — the
    directory is derived, never configured, so a resumed campaign finds
    its earlier traces where it left them.  In-memory stores have no
    neighborhood to persist into.
    """
    if store.path is None:
        return None
    p = Path(store.path)
    return str(p.with_name(p.stem + ".traces"))


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(CAMPAIGNS):
        c = CAMPAIGNS[name]()
        rows.append((name, c.title, len(c), ", ".join(c.experiments())))
    print(format_table("registered campaigns (see EXPERIMENTS.md)",
                       ["name", "title", "runs", "experiments"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    campaign = _resolve_campaign(args)
    store = _resolve_store(args, campaign)
    cached = len(store.fingerprints() & set(campaign.fingerprints()))

    def progress(done: int, total: int, record: dict) -> None:
        if args.quiet:
            return
        metrics = record.get("metrics", {})
        spec = record.get("spec", {})
        what = spec.get("protocol") or f"analysis:{spec.get('analysis')}"
        if "skipped" in metrics:
            note = f"skipped ({metrics['skipped']})"
        else:
            wall = record.get("timing", {}).get("wall_seconds", 0.0)
            note = ", ".join(
                f"{k}={metrics[k]}" for k in ("rounds", "moves")
                if k in metrics) or "done"
            note += f"  [{wall:.2f}s]"
        print(f"[{done}/{total}] {record.get('experiment')} {what}: {note}",
              flush=True)

    records = run_campaign(campaign, store=store, workers=args.workers,
                           max_runs=args.max_runs, progress=progress,
                           trace_dir=_trace_dir(store))
    executed = len(records) - cached
    print(f"campaign {campaign.name!r}: {executed} executed, "
          f"{cached} cached, {len(campaign) - len(records)} pending "
          f"(store: {store.path})")
    return 0


def _experiment_fingerprints(campaign: Campaign) -> dict[str, list[str]]:
    """Experiment id -> its specs' fingerprints, in campaign order."""
    out: dict[str, list[str]] = {}
    for spec, fp in zip(campaign.specs, campaign.fingerprints()):
        out.setdefault(spec.experiment, []).append(fp)
    return out


def _cmd_status(args: argparse.Namespace) -> int:
    campaign = _resolve_campaign(args)
    store = _resolve_store(args, campaign)
    have = store.fingerprints()
    rows = []
    for experiment, fps in _experiment_fingerprints(campaign).items():
        done = sum(1 for fp in fps if fp in have)
        rows.append((experiment, done, len(fps),
                     "complete" if done == len(fps) else "pending"))
    total_done = sum(r[1] for r in rows)
    print(format_table(
        f"campaign {campaign.name!r} "
        f"({total_done}/{len(campaign)} runs, store: {store.path})",
        ["experiment", "done", "total", "state"], rows))
    return 0 if total_done == len(campaign) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    campaign = _resolve_campaign(args)
    store = _resolve_store(args, campaign)
    by_fp = store.by_fingerprint()
    # campaign order, one record per run (the store's last write wins)
    records = [by_fp[fp] for fp in campaign.fingerprints() if fp in by_fp]
    if args.experiment:
        records = [r for r in records
                   if r.get("experiment") == args.experiment]
    if not records:
        print("no records in the store for this campaign; "
              "run `campaign run` first", file=sys.stderr)
        return 1
    print(render_records(records, fmt=args.format))
    failed = False
    for experiment, fps in _experiment_fingerprints(campaign).items():
        if args.experiment in (None, experiment):
            verdict = claim_verdict(experiment, records, len(fps))
            if verdict is not None:
                print(f"claim {experiment}: {verdict}", file=sys.stderr)
                failed = failed or verdict.startswith("FAILED")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="experiment campaigns, certification, telemetry and "
                    "sharded runs for the ICDCS'15 reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    # the certification subsystem registers `python -m repro certify`
    from repro.certify.cli import register_certify
    register_certify(sub)

    # the static analyzer registers `python -m repro statics`
    from repro.statics.cli import register_statics
    register_statics(sub)

    # the sharded runtime registers `python -m repro shard`
    from repro.runtime.sharding.cli import register_shard
    register_shard(sub)

    # the telemetry layer registers `python -m repro obs`
    from repro.obs.cli import register_obs
    register_obs(sub)

    campaign = sub.add_parser("campaign", help="declarative experiment sweeps")
    csub = campaign.add_subparsers(dest="subcommand", required=True)

    p_list = csub.add_parser("list", help="registered campaigns")
    p_list.set_defaults(fn=_cmd_list)

    p_run = csub.add_parser("run", help="execute a campaign (resumable)")
    _add_campaign_options(p_run)
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1; results "
                            "are bit-identical for any value)")
    p_run.add_argument("--max-runs", type=int, default=None,
                       help="stop after N new runs (for partial campaigns)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")
    p_run.set_defaults(fn=_cmd_run)

    p_status = csub.add_parser("status", help="completion state per experiment")
    _add_campaign_options(p_status)
    p_status.set_defaults(fn=_cmd_status)

    p_report = csub.add_parser("report",
                               help="render tables and check the paper's "
                                    "claims from the store alone")
    _add_campaign_options(p_report)
    p_report.add_argument("--format", choices=("ascii", "markdown", "csv"),
                          default="ascii")
    p_report.add_argument("--experiment", metavar="EXP-ID",
                          help="restrict to one experiment id")
    p_report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # e.g. `campaign report | head`: the consumer closed the pipe;
        # detach stdout so the interpreter's shutdown flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
