"""``python -m repro obs`` — convergence telemetry commands.

::

    python -m repro obs record --workload smoke-sst-48 --out trace.jsonl
    python -m repro obs report trace.jsonl
    python -m repro obs tail trace.jsonl
    python -m repro obs validate trace.jsonl other.jsonl
    python -m repro obs overhead

``record`` replays a pinned workload (:mod:`repro.obs.workloads`) once
with a :class:`~repro.obs.probes.TraceRecorder` attached — including
sharded workloads, which stream per-round frames from the worker
processes.  ``report`` renders a finished trace (sparklines +
per-round table); ``tail`` follows a live capture line by line.
``overhead`` is the CI gate for the zero-overhead claim: it checks
*structurally* that a recorder-less simulator runs the exact
pre-telemetry round loop (no shadowed ``run_round``) and that a live
recorder does shadow it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = ["register_obs"]


def _workload(name: str):
    from repro.obs.workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"known: {', '.join(sorted(WORKLOADS))}")
    return WORKLOADS[name]


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.obs.probes import TraceRecorder
    from repro.obs.trace import validate_trace
    from repro.obs.workloads import execute

    workload = _workload(args.workload)
    out = Path(args.out)
    recorder = TraceRecorder(out, header_extra={"workload": workload.name})
    try:
        _, moves, rounds, silent, n, m = execute(workload, recorder=recorder)
    except BaseException:
        recorder.abort()
        raise
    problems = validate_trace(out)
    if problems:  # pragma: no cover - recorder bug, not a user error
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(f"error: recorded trace {out} failed validation")
    print(f"recorded {workload.name} (n={n}, m={m}): "
          f"rounds={rounds} moves={moves} silent={silent}")
    print(f"trace written to {out} "
          f"(render: python -m repro obs report {out})")
    return 0


def _load(path: str):
    from repro.obs.trace import read_trace
    try:
        return read_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report
    header, rows, end = _load(args.path)
    print(render_report(header, rows, end, max_rows=args.max_rows), end="")
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    """Follow a (possibly still growing) trace until its ``end`` record.

    The file is polled and parsed line-wise; a torn final line — a
    capture mid-write — is simply held back until the writer finishes
    it, which is why rows are flushed whole by the recorder.
    """
    from repro.obs.report import render_row
    path = Path(args.path)
    pos = 0
    buf = ""
    deadline = time.monotonic() + args.timeout if args.timeout else None
    try:
        while True:
            if path.exists():
                with path.open() as fh:
                    fh.seek(pos)
                    chunk = fh.read()
                    pos = fh.tell()
                buf += chunk
                while "\n" in buf:
                    line, buf = buf.split("\n", 1)
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError:
                        print("  (unparseable line skipped)",
                              file=sys.stderr)
                        continue
                    kind = obj.get("kind")
                    if kind == "header":
                        print(f"trace: protocol={obj.get('protocol')} "
                              f"scheduler={obj.get('scheduler')} "
                              f"n={obj.get('n')} "
                              f"probes={','.join(obj.get('probes', []))}")
                    elif kind == "round":
                        print(render_row(obj), flush=True)
                    elif kind == "end":
                        print(f"end: rounds={obj.get('rounds')} "
                              f"moves={obj.get('moves')} "
                              f"silent={obj.get('silent')}")
                        return 0
            if deadline is not None and time.monotonic() > deadline:
                print("tail: timeout before the end record", file=sys.stderr)
                return 1
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.obs.trace import validate_trace
    failures = 0
    for path in args.paths:
        problems = validate_trace(path)
        if problems:
            failures += 1
            print(f"{path}: INVALID")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    """The zero-overhead gate for disabled probes.

    The check is structural, and it is the proof: without a recorder
    the ``run_round`` entry point must be the plain class method (no
    instance attribute shadowing it), because that is *how* the
    disabled path is the pre-telemetry byte path — hook selection
    happens once at construction, never per move, so the per-move cost
    of a disabled probe is zero instructions, not merely "under 2%".
    """
    import tempfile

    from repro.obs.probes import TraceRecorder
    from repro.obs.workloads import build_simulator, execute
    from repro.runtime.simulator import Simulator

    workload = _workload(args.workload)
    if workload.shards:
        raise SystemExit("error: overhead gates the single-process engine; "
                         "pick an unsharded workload")

    sim = build_simulator(workload, recorder=None)
    if "run_round" in vars(sim) or type(sim).run_round is not Simulator.run_round:
        print("FAIL: recorder=None shadowed run_round — the disabled path "
              "is no longer the pre-telemetry byte path", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        recorder = TraceRecorder(Path(tmp) / "probe.jsonl")
        engaged = "run_round" in vars(build_simulator(workload,
                                                      recorder=recorder))
        recorder.abort()
    if not engaged:
        print("FAIL: attaching a recorder did not engage the observed "
              "round loop", file=sys.stderr)
        return 1
    print("structural: ok — recorder=None leaves run_round on the class, "
          "a live recorder shadows it")

    # informational: what enabling the probes costs (not gated)
    with tempfile.TemporaryDirectory() as tmp:
        on = execute(workload, recorder=TraceRecorder(Path(tmp) / "on.jsonl"))
    print(f"  probes enabled (info)  {on.seconds:.4f}s "
          f"({on.moves / on.seconds:,.0f} moves/s)")
    print("overhead gate: PASS")
    return 0


def register_obs(subparsers) -> None:
    """Attach the ``obs`` subcommand to ``python -m repro``."""
    obs = subparsers.add_parser(
        "obs", help="convergence telemetry: record, render, gate")
    osub = obs.add_subparsers(dest="subcommand", required=True)

    p_record = osub.add_parser(
        "record", help="record a convergence trace of a pinned workload")
    p_record.add_argument("--workload", required=True,
                          help="a pinned workload name (see "
                               "repro.obs.workloads; an unknown name "
                               "lists them)")
    p_record.add_argument("--out", required=True, metavar="PATH",
                          help="where the JSONL trace lands")
    p_record.set_defaults(fn=_cmd_record)

    p_report = osub.add_parser(
        "report", help="render a finished trace (sparklines + table)")
    p_report.add_argument("path")
    p_report.add_argument("--max-rows", type=int, default=40,
                          help="per-round table rows before eliding "
                               "the middle (default 40)")
    p_report.set_defaults(fn=_cmd_report)

    p_tail = osub.add_parser(
        "tail", help="follow a live capture line by line")
    p_tail.add_argument("path")
    p_tail.add_argument("--interval", type=float, default=0.25,
                        help="poll interval in seconds (default 0.25)")
    p_tail.add_argument("--timeout", type=float, default=0.0,
                        help="give up after this many seconds without an "
                             "end record (default: wait forever)")
    p_tail.set_defaults(fn=_cmd_tail)

    p_validate = osub.add_parser(
        "validate", help="check trace files against the schema")
    p_validate.add_argument("paths", nargs="+")
    p_validate.set_defaults(fn=_cmd_validate)

    p_over = osub.add_parser(
        "overhead",
        help="CI gate: disabled probes must leave the round loop "
             "untouched (structural)")
    p_over.add_argument("--workload", default="acceptance-sst-512")
    p_over.set_defaults(fn=_cmd_overhead)
