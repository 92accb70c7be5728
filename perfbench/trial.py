"""One benchmark pass in a fresh process: import, build, solve, judge.

Run by :mod:`perfbench.run`, one process at a time::

    python -m perfbench.trial --workload sst-central --seed 1 [--trace 1]

Prints one JSON object: the moment every instance was built (on the
system-wide monotonic clock, so the launcher can measure set-up from
before the process existed), per-instance solve seconds, counts and
failures, peak RSS and, when traced, the layer summary.

Every instance solve is bracketed by :func:`reference_s`, a fixed
pure-Python loop that touches no program code.  On a shared host the
speed of the machine drifts over tens of seconds; a solve divided by
the mean of the two loops around it keeps the work and drops most of
that drift (see README.md for the measurements).  The reported solve
seconds are that ratio times :data:`REFERENCE_NOMINAL_S`: host seconds
at the reference speed.  The raw wall-clock seconds are reported too.
Set-up is normalised the same way, by the loop the launcher runs just
before starting the process and the first loop after the build.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


#: the reference loop's working set (16 Ki slots, about 1 MB): larger
#: than a tiny loop's, so cache contention slows it like the engine
REFERENCE_SLOTS = 1 << 14


#: the reference loop's duration at the reference speed: its median on the
#: 2-vCPU Intel Xeon VM the benchmark was defined on
REFERENCE_NOMINAL_S = 0.040


def reference_s() -> float:
    """Seconds a fixed dict-and-list loop takes (about 40 ms): the yardstick
    for the host's speed at that moment.  It runs no program code."""
    start = time.perf_counter()
    mask = REFERENCE_SLOTS - 1
    slots = list(range(REFERENCE_SLOTS))
    table: dict[int, int] = {}
    acc = 0
    for i in range(80_000):
        k = (i * 40503) & mask
        acc += slots[k] + table.get((i * 7) & mask, 0)
        table[k] = acc & 0xFFFF
        slots[(k * 3) & mask] = i
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.trial")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where a traced pass writes its spans")
    ap.add_argument("--warmup", action="store_true",
                    help="import only (fills the bytecode and page caches)")
    args = ap.parse_args(argv)

    from perfbench import families
    imported = time.perf_counter()
    if args.warmup:
        print(json.dumps({"warmup": True}))
        return 0
    family = families.WORKLOADS.get(args.workload)
    if family is None:
        print(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(families.WORKLOADS)})", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    def phase(name: str):
        return nullcontext() if tracer is None else tracer.in_phase(name)

    seeds = families.instance_seeds(family, args.seed)
    with phase("setup"):
        instances = [families.build_instance(family, s) for s in seeds]
    built_at = time.perf_counter()
    wall_s = []
    solve_s = []
    before = first_reference = reference_s()
    for inst in instances:
        with phase("solve"):
            t0 = time.perf_counter()
            families.solve(inst)
            took = time.perf_counter() - t0
        after = reference_s()
        wall_s.append(took)
        solve_s.append(REFERENCE_NOMINAL_S * 2 * took / (before + after))
        before = after
    with phase("judge"):
        failures = [families.judge(inst) for inst in instances]

    out = {
        "import_s": imported - STARTED,
        "built_at": built_at,
        "reference_after_build": first_reference,
        "solve_s": solve_s,
        "wall_s": wall_s,
        "counts": [families.counts(inst) for inst in instances],
        "failures": failures,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["stats"] = {
            "settle_retired": sum(i.sim.stat_settle_retired for i in instances),
            "vector_refreshes": sum(i.sim.stat_vector_refreshes
                                    for i in instances),
        }
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
