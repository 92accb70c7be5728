"""Layer spans for the traced run, installed from outside the program.

:func:`install` replaces the public entry points of each simulator layer
with timing wrappers, in this process only.  Timed (untraced) runs never
import this module, so their code path is the program's own.

Each wrapped call pushes a frame; on return its duration is charged to
the enclosing frame as child time, and its *self* time (duration minus
child time) to its layer within the current phase (``setup``, ``solve``
or ``judge``).  Self times of all layers in one phase therefore never
add up to more than the phase.  Coarse layers also keep one span per
call (name, start, end, parent span); hot layers — rule evaluations and
scheduler selections, millions of calls — are aggregated only.  Spans
stay in memory until :meth:`Tracer.write_spans` at the end of the pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "install"]


class Tracer:
    """Span stack, per-phase self times, call counts, kept spans."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: kept spans: [name, start, end, parent span index or -1]
        self.spans: list[list] = []
        #: open frames: [child seconds, index of the nearest kept span]
        self.stack: list[list] = []
        self.phase = "setup"
        self.self_s: dict[str, Counter] = defaultdict(Counter)
        self.total_s: dict[str, Counter] = defaultdict(Counter)
        self.calls: Counter = Counter()
        #: work counts that are not call counts (e.g. vector rows)
        self.extra: Counter = Counter()

    def wrap(self, layer: str, fn, keep: bool = False):
        """``fn`` timed as ``layer``; ``keep`` also records one span per call."""
        stack = self.stack
        spans = self.spans
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                span = len(spans)
                spans.append([layer, 0.0, 0.0, parent])
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                self.self_s[self.phase][layer] += took - frame[0]
                self.total_s[self.phase][layer] += took
                calls[layer] += 1
                if keep:
                    spans[span][1] = start
                    spans[span][2] = end

        return wrapper

    @contextmanager
    def in_phase(self, name: str):
        """Attribute everything inside to phase ``name`` (itself a span)."""
        self.phase = name
        yield from self._span(name)

    def _span(self, name: str):
        span = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1])
        self.stack.append([0.0, span])
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[span][1] = start
            self.spans[span][2] = time.perf_counter()

    def summary(self) -> dict:
        """JSON-plain per-phase self/total times, call and work counts."""
        return {
            "self": {p: dict(c) for p, c in self.self_s.items()},
            "total": {p: dict(c) for p, c in self.total_s.items()},
            "calls": dict(self.calls),
            "extra": dict(self.extra),
        }

    def write_spans(self, path: Path) -> None:
        """Write every kept span, times relative to the tracer's start."""
        t0 = self.t0
        rows = [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "summary": self.summary()}, fh)


def _instrument_protocol(tracer: Tracer, proto) -> None:
    """Time the compiled rules this protocol instance hands the engine.

    Patching the instance (not the class) leaves the layer protocols a
    composition delegates to unwrapped, so each evaluation counts once.
    """
    compile_slots = proto.fast_step_slots
    compile_vector = proto.vector_step

    def fast_step_slots(schema):
        rule = compile_slots(schema)
        return None if rule is None else tracer.wrap("core.rule", rule)

    def vector_step(schema, cols):
        rule = compile_vector(schema, cols)
        if rule is None:
            return None
        timed = tracer.wrap("columns.vector", rule)

        def counted(store, active, *rest):
            tracer.extra["columns.vector_rows"] += (
                store.n if active is None else len(active))
            return timed(store, active, *rest)

        return counted

    proto.fast_step_slots = fast_step_slots
    proto.vector_step = vector_step


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's public entry points in this process."""
    from repro.certify.oracle import CertifiedOracle
    from repro.certify.schemes import LocalCertifier
    from repro.experiments import registry
    from repro.runtime import scheduler as sched_mod
    from repro.runtime.dynamics import run as dynamics_run
    from repro.runtime.dynamics.schedules import ChurnSchedule
    from repro.runtime.simulator import Simulator

    registry.build_network = tracer.wrap(
        "graphs.build", registry.build_network, keep=True)
    registry.build_config = tracer.wrap(
        "init.build", registry.build_config, keep=True)
    build_protocol = registry.build_protocol

    def build_instrumented(name):
        proto, entry = build_protocol(name)
        _instrument_protocol(tracer, proto)
        return proto, entry

    registry.build_protocol = build_instrumented
    Simulator.__init__ = tracer.wrap(
        "runtime.sim_init", Simulator.__init__, keep=True)
    Simulator.run_round = tracer.wrap(
        "runtime.round", Simulator.run_round, keep=True)
    for cls in vars(sched_mod).values():
        if isinstance(cls, type) and issubclass(cls, sched_mod.Scheduler):
            for attr in ("select", "pick"):
                if attr in vars(cls):
                    setattr(cls, attr, tracer.wrap(
                        "scheduler.select", vars(cls)[attr]))
    LocalCertifier.verify = tracer.wrap(
        "certify.verify", LocalCertifier.verify, keep=True)
    consult = CertifiedOracle.consult

    def consult_counted(self, key, compute):
        tracer.calls["oracle.consult"] += 1
        return consult(self, key,
                       tracer.wrap("oracle.detector", compute, keep=True))

    CertifiedOracle.consult = consult_counted
    ChurnSchedule.next_event = tracer.wrap(
        "dynamics.schedule", ChurnSchedule.next_event, keep=True)
    dynamics_run.apply_event = tracer.wrap(
        "dynamics.apply", dynamics_run.apply_event, keep=True)
