"""The probe layer: recorders the engine invokes between atomic steps.

A :class:`TraceRecorder` is handed to a simulator at *construction*
(``Simulator(..., recorder=...)``); the engine then swaps in its
observed round loop once, at setup.  With no recorder the engine byte
path is exactly the pre-telemetry one — hook selection happens at
construction, never per move, which is what keeps the disabled-path
overhead at zero *structurally* (``repro obs overhead`` gates it).

Probe callbacks run **between** atomic steps, never from inside one:
they read the whole configuration by design and live outside the rule
contract (see ``OBS_ENTRYPOINTS`` in :mod:`repro.runtime.protocol` —
the statics analyzer treats them as an observer boundary, like the
certification oracle).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.obs.trace import dump_line, make_end, make_event, make_header

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Writes one convergence trace (see :mod:`repro.obs.trace`).

    One recorder serves exactly one execution: the engine attaches it at
    construction (writing the header), feeds it one row per round, and
    the driver finalizes it (writing the ``end`` totals) once the run
    stops.  Rows are flushed as written so ``repro obs tail`` can follow
    a live capture.

    Parameters
    ----------
    path:
        Where the JSONL trace lands (parents created).
    potential:
        Try the protocol's ``probe_potential`` observer at attach time;
        when it yields a value the ``potential`` column is captured
        every round (the SST packed-claim sum, the BFS depth potential).
    extra_probes:
        Optional named zero-argument callables sampled once per round —
        e.g. a ``certified`` probe wrapping the spec's local certifier,
        whose 0/1 column is what flicker counts are read from.
    header_extra:
        Extra header fields (workload name, shard count, ...).
    """

    def __init__(self, path: str | Path, *, potential: bool = True,
                 extra_probes: dict[str, Callable[[], Any]] | None = None,
                 header_extra: dict[str, Any] | None = None) -> None:
        self.path = Path(path)
        self._want_potential = potential
        self._extra_probes = dict(extra_probes or {})
        self._header_extra = dict(header_extra or {})
        self._fh: Any = None
        self._sim: Any = None
        self._potential_on = False
        self._rounds = 0
        self._moves = 0
        self._finalized = False

    # -- lifecycle -----------------------------------------------------

    def open(self, header: dict[str, Any]) -> None:
        """Write the header and go live (the engine calls this via attach)."""
        if self._fh is not None:
            raise RuntimeError(
                f"recorder for {self.path} already attached; one recorder "
                "serves one execution")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        self._fh.write(dump_line(header))
        self._fh.flush()

    def attach(self, sim: Any) -> None:
        """Bind to a single-process :class:`~repro.runtime.simulator.Simulator`.

        Probes the protocol's potential observer once on the initial
        configuration (a ``None`` answer disables the column for the
        whole trace), and records the engine path capabilities so a
        trace is self-describing about what produced it.
        """
        self._sim = sim
        initial = None
        if self._want_potential:
            initial = sim.protocol.probe_potential(sim.net, sim.config)
            self._potential_on = initial is not None
        probes = sorted(self._extra_probes)
        if self._potential_on:
            probes.append("potential")
        engine = {
            # every binding runs on a slot rule; the key stays so that
            # trace headers keep their shape
            "slot": True,
            "fused_capable": sim._notify is None,
        }
        extra = dict(self._header_extra)
        extra["enabled_initial"] = len(sim.enabled_set())
        if self._potential_on:
            extra["potential_initial"] = initial
        self.open(make_header(
            protocol=sim.protocol.name,
            scheduler=sim.scheduler.name,
            n=sim.net.n,
            engine=engine,
            probes=probes,
            **extra))

    def attach_sharded(self, sharded: Any) -> None:
        """Bind to a :class:`~repro.runtime.sharding.engine.ShardedSimulator`.

        Sharded rows carry a ``per_shard`` moves column instead of the
        potential probe (sampling a global potential would mean
        collecting every shard's configuration each round).
        """
        probes = sorted(self._extra_probes) + ["per_shard"]
        extra = dict(self._header_extra)
        self.open(make_header(
            protocol=sharded.protocol_name,
            scheduler="synchronous-sharded",
            n=sharded.plan.n,
            # every shard is a worker process; the constant field keeps
            # the header shape of older traces
            engine={"sharded": True, "shards": sharded.k,
                    "processes": True},
            probes=probes,
            **extra))

    def finalize(self, *, silent: bool) -> None:
        """Write the ``end`` totals and close (idempotent)."""
        if self._finalized or self._fh is None:
            return
        self._fh.write(dump_line(make_end(
            rounds=self._rounds, moves=self._moves, silent=silent)))
        self._fh.close()
        self._fh = None
        self._finalized = True

    def abort(self) -> None:
        """Close without an ``end`` record — the honest crash shape."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.abort()

    # -- per-round emission --------------------------------------------

    def round_row(self, **fields: Any) -> None:
        """Emit one round record (engine-facing; totals accumulate here)."""
        if self._fh is None:
            raise RuntimeError(f"recorder for {self.path} is not open")
        self._rounds += 1
        self._moves += int(fields.get("moves", 0))
        row = {"kind": "round", "round": self._rounds}
        row.update(fields)
        for name, fn in self._extra_probes.items():
            row[name] = fn()
        self._fh.write(dump_line(row))
        self._fh.flush()

    def event_row(self, *, event: dict[str, Any], n: int,
                  enabled: int) -> None:
        """Emit one topology-event record (schema v2).

        Event rows never advance the round numbering or the move totals:
        they are markers *between* rounds, so a churned trace's ``end``
        totals still equal its per-round sums exactly.
        """
        if self._fh is None:
            raise RuntimeError(f"recorder for {self.path} is not open")
        self._fh.write(dump_line(make_event(
            after_round=self._rounds, event=event, n=n, enabled=enabled)))
        self._fh.flush()

    def on_round(self, sim: Any, **stats: Any) -> None:
        """The simulator's per-round callback (adds the potential column)."""
        if self._potential_on:
            stats["potential"] = sim.protocol.probe_potential(
                sim.net, sim.config)
        self.round_row(**stats)
