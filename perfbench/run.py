"""Benchmark entry point: repeated fresh-process passes of one workload.

    python3 perfbench/run.py --workload sst-central --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each pass is one fresh, single-threaded
Python process (:mod:`perfbench.trial`) that imports ``repro`` from
``src/``, builds the seed's instance set, solves every instance and
judges it.  Passes run one at a time until ``--seconds`` have elapsed
(at least :data:`MIN_PASSES`), after one discarded import-only warm-up.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
passes of launch-to-built, in host seconds at the reference speed),
``solve_s`` (per instance the median over
passes of its solve in host seconds at the reference speed, see
:mod:`perfbench.trial`; summed over instances), ``peak_rss_mb`` (median
over passes),
and the exact counts ``moves``, ``rounds`` (summed over instances) and
``register_bits_max`` (max over instances).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 measured, 1 a pass crashed or timed out, 2 bad arguments or no
``src/repro`` to measure, 3 counts differed between passes of one run
(nondeterminism is a bug, not noise).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench.trial import REFERENCE_NOMINAL_S, reference_s  # noqa: E402

MIN_PASSES = 3
#: a run must end well inside three minutes, whatever ``--seconds`` says
DEADLINE_S = 170.0


class BenchError(Exception):
    """A run that cannot produce a result; carries its exit code."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    # one process, one thread: numpy must not start a BLAS thread pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_OBS_CAPTURE", None)
    return env


def run_pass(args: argparse.Namespace, started: float, *, trace: bool = False,
             warmup: bool = False, spans: Path | None = None) -> dict:
    """One fresh process; returns its report plus the launcher's set-up time."""
    cmd = [sys.executable, "-m", "perfbench.trial",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace))]
    if warmup:
        cmd.append("--warmup")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise BenchError("out of time before the pass could start")
    reference = reference_s()
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr}",
                         code=2 if proc.returncode == 2 else 1)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not warmup:
        # perf_counter is CLOCK_MONOTONIC, shared by every process
        report["wall_setup_s"] = report["built_at"] - launched
        report["setup_s"] = (REFERENCE_NOMINAL_S * 2 * report["wall_setup_s"]
                             / (reference + report["reference_after_build"]))
    return report


def check_counts(passes: list[dict]) -> list[dict]:
    """The per-instance counts, which every pass must reproduce exactly."""
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:], start=2):
        if p["counts"] != first:
            raise BenchError(
                f"nondeterminism: pass {i} counted {p['counts']} but pass 1 "
                f"counted {first}", code=3)
    return first


def _summed_medians(passes: list[dict], key: str) -> float:
    """Per instance the median over passes, summed over instances."""
    return sum(statistics.median(ts) for ts in zip(*(p[key] for p in passes)))


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    counts = check_counts(passes)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "solve_s": (_summed_medians(passes, "solve_s"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "moves": (sum(c["moves"] for c in counts), "count"),
        "rounds": (sum(c["rounds"] for c in counts), "count"),
        "register_bits_max": (max(c["register_bits_max"] for c in counts), "bits"),
    }


def _layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    lay = p["layers"]
    setup_self = lay["self"].get("setup", {})
    solve_self = lay["self"].get("solve", {})
    calls = lay["calls"]
    setup_s = p["wall_setup_s"]
    solve_s = sum(p["wall_s"])
    moves = sum(c["moves"] for c in p["counts"])
    rounds = sum(c["rounds"] for c in p["counts"])
    round_s = lay["total"].get("solve", {}).get("runtime.round", 0.0)

    def everywhere(layer: str) -> float:
        return sum(phase.get(layer, 0.0) for phase in lay["self"].values())

    out = {
        "runtime.import_s": p["import_s"],
        "runtime.import_share": p["import_s"] / setup_s,
    }
    for layer in ("runtime.sim_init", "graphs.build", "init.build"):
        out[f"{layer}_s"] = setup_self.get(layer, 0.0)
        out[f"{layer}_share"] = setup_self.get(layer, 0.0) / setup_s
    out.update({
        "runtime.round_s": round_s,
        "runtime.self_s": solve_self.get("runtime.round", 0.0),
        "runtime.self_share": solve_self.get("runtime.round", 0.0) / solve_s,
        "runtime.moves_per_s": moves / round_s if round_s else 0.0,
        "runtime.us_per_round": 1e6 * round_s / rounds if rounds else 0.0,
        "runtime.settle_retired": p["stats"]["settle_retired"],
        "scheduler.selections": calls.get("scheduler.select", 0),
        "core.rule_evals": calls.get("core.rule", 0),
        "core.evals_per_move": calls.get("core.rule", 0) / moves if moves else 0.0,
        "columns.vector_refreshes": p["stats"]["vector_refreshes"],
        "columns.vector_rows": lay["extra"].get("columns.vector_rows", 0),
        "certify.verify_calls": calls.get("certify.verify", 0),
        "oracle.consults": calls.get("oracle.consult", 0),
        "oracle.misses": calls.get("oracle.detector", 0),
        "dynamics.events": calls.get("dynamics.apply", 0),
        "trace.setup_s": setup_s,
        "trace.solve_s": solve_s,
    })
    for layer in ("scheduler.select", "core.rule", "columns.vector",
                  "certify.verify", "oracle.detector", "dynamics.schedule",
                  "dynamics.apply"):
        out[f"{layer}_s"] = everywhere(layer)
        out[f"{layer}_share"] = solve_self.get(layer, 0.0) / solve_s
    return out


#: unit by metric-name suffix, longest suffix first
UNITS = {"_per_s": "1/s", "_per_round": "us", "_per_move": "ratio",
         "_share": "ratio", "overhead": "ratio", "_s": "s"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    check_counts(untraced + traced)
    rows = [_layer_metrics(p) for p in traced]
    out = {name: (statistics.median(r[name] for r in rows), _unit(name))
           for name in rows[0]}
    # compared at the reference speed, which drops most of the host's drift
    overhead = (_summed_medians(traced, "solve_s")
                / _summed_medians(untraced, "solve_s") - 1)
    out["trace.overhead"] = (overhead, _unit("trace.overhead"))
    out["wall.setup_s"] = (statistics.median(p["wall_setup_s"] for p in untraced), "s")
    out["wall.solve_s"] = (_summed_medians(untraced, "wall_s"), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    try:
        run_pass(args, started, warmup=True)
        untraced: list[dict] = []
        traced: list[dict] = []
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < args.seconds
               or len(untraced) < MIN_PASSES
               or (args.trace and len(traced) < MIN_PASSES)):
            if args.trace and len(traced) < len(untraced):
                spans = (ROOT / ".perfbench" / "spans"
                         / f"{args.workload}-seed{args.seed}-pass{len(traced) + 1}.json")
                traced.append(run_pass(args, started, trace=True, spans=spans))
            else:
                untraced.append(run_pass(args, started))
        passes = untraced + traced
        metrics = (per_layer(untraced, traced) if args.trace
                   else end_to_end(untraced))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    failed = sum(f is not None for p in passes for f in p["failures"])
    for p in passes:
        for f in p["failures"]:
            if f is not None:
                print(f"failed instance: {f}", file=sys.stderr)
    attempted = sum(len(p["failures"]) for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
