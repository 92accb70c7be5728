"""Executing one spec: network, protocol, daemon, run, measurements.

The runner is the only bridge between the declarative model and the
runtime.  Each run derives its own named RNG streams (topology, init,
scheduler, faults, analysis) from ``(root_seed, fingerprint)`` via
:func:`~repro.experiments.spec.spawn_rng`, and never touches module-level
RNG state — so a record is a pure function of ``(spec, root_seed)``,
bit-identical whether it was computed serially, on a pool worker, or in a
resumed campaign.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.experiments.analyses import run_analysis
from repro.experiments.registry import (
    SCHEDULERS,
    build_config,
    build_network,
    build_protocol,
)
from repro.experiments.spec import ExperimentSpec, derive_seed, spawn_rng
from repro.runtime.faults import inject_random_faults
from repro.runtime.metrics import max_register_bits, total_register_bits
from repro.runtime.simulator import Simulator

__all__ = ["execute", "run_spec", "RECORD_VERSION", "canonical_record"]

#: Bump when the record schema changes incompatibly; reports may branch.
RECORD_VERSION = 1

#: Fields excluded from determinism comparisons (wall-clock noise).
VOLATILE_KEYS = ("timing",)


def canonical_record(record: dict[str, Any]) -> dict[str, Any]:
    """The record minus volatile fields — the bit-identical part."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}


def _legality(proto, net, config):
    """Protocol legality as a JSON value: True/False, or None when the
    protocol defines no predicate."""
    try:
        return bool(proto.is_legal(net, config))
    except NotImplementedError:
        return None


def _certified(certifier_key: str, net, config) -> bool:
    """Whether the local verifiers accept the (decorated) configuration."""
    from repro.certify.schemes import get_certifier
    cert = get_certifier(certifier_key)
    try:
        decorated = cert.certify(net, config)
    except (ValueError, KeyError, TypeError):
        return False
    return bool(cert.verify(net, decorated).accepted)


def execute(spec: ExperimentSpec, root_seed: int = 0,
            trace_dir: str | Path | None = None
            ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one spec; returns ``(record, context)``.

    ``record`` is the JSON-plain summary persisted by the store.
    ``context`` holds live objects (network, simulator, start tree) for
    in-process callers — examples that want to poke the final
    configuration; it never crosses a process boundary.

    A spec with ``trace=1`` additionally captures the run's convergence
    trace (repro.obs JSONL) under ``trace_dir`` as
    ``trace-<fingerprint>.jsonl``.  The record stays a pure function of
    ``(spec, root_seed)``: the metrics carry the *derived filename*
    either way, and only the presence of ``trace_dir`` (campaign
    plumbing, like the store path) decides whether the bytes land.
    """
    fp = spec.fingerprint(root_seed)
    base: dict[str, Any] = {
        "version": RECORD_VERSION,
        "fingerprint": fp,
        "root_seed": root_seed,
        "experiment": spec.experiment,
        "spec": spec.to_dict(),
    }
    if spec.skip:
        base["metrics"] = {"skipped": spec.skip}
        base["timing"] = {"wall_seconds": 0.0, "run_seconds": 0.0}
        return base, {}

    t0 = time.perf_counter()
    if spec.analysis:
        metrics = run_analysis(spec.analysis,
                               spawn_rng(root_seed, fp, "analysis"),
                               spec.analysis_args)
        elapsed = time.perf_counter() - t0
        base["metrics"] = dict(metrics)
        base["timing"] = {"wall_seconds": elapsed, "run_seconds": elapsed}
        return base, {}

    net = build_network(spec.topology, spec.topo,
                        spawn_rng(root_seed, fp, "topology"))
    proto, entry = build_protocol(spec.protocol)
    config, context = build_config(spec.init, net, proto,
                                   spawn_rng(root_seed, fp, "init"),
                                   spec.init_args)
    scheduler = SCHEDULERS[spec.scheduler](
        derive_seed(root_seed, fp, "scheduler"))
    recorder = None
    trace_name = f"trace-{fp}.jsonl"
    if spec.trace and trace_dir is not None:
        from repro.obs.probes import TraceRecorder
        live: dict[str, Any] = {}
        extra_probes: dict[str, Any] = {}
        if entry.certifier is not None:
            # the locally_certified flicker probe: the 0/1 per-round
            # column flicker counts are read from (see repro.obs).  The
            # network is read through the live simulator, not captured:
            # topology events rebind sim.net mid-run and the probe must
            # verify against the current revision.
            cert_key = entry.certifier
            extra_probes["certified"] = lambda: int(
                _certified(cert_key, live["sim"].net, live["sim"].config))
        recorder = TraceRecorder(
            Path(trace_dir) / trace_name,
            extra_probes=extra_probes,
            header_extra={"fingerprint": fp,
                          "experiment": spec.experiment})
    sim = Simulator(net, proto, scheduler, config=config,
                    rng=spawn_rng(root_seed, fp, "faults"),
                    recorder=recorder)
    if recorder is not None:
        live["sim"] = sim
    max_rounds = spec.max_rounds or 20_000 * net.n

    run_t0 = time.perf_counter()
    try:
        if spec.stop == "legal":
            result = sim.run(max_rounds=max_rounds,
                             stop_when=lambda nn, cfg: bool(proto.is_legal(nn, cfg)))
        else:
            result = sim.run(max_rounds=max_rounds)
    except BaseException:
        if recorder is not None:
            recorder.abort()  # the trace ends torn — honestly
        raise
    run_seconds = time.perf_counter() - run_t0

    metrics: dict[str, Any] = {"n": net.n, "m": net.m}
    metrics.update(result.to_record())
    metrics["legal"] = _legality(proto, net, sim.config)
    metrics["max_register_bits"] = max_register_bits(net, sim.spec, sim.config)
    metrics["total_register_bits"] = total_register_bits(net, sim.spec,
                                                         sim.config)
    if result.silent:
        # a silent algorithm performs zero further moves: certify over a
        # short observation window (cheap — the rounds are empty)
        metrics["confirmed_silent"] = sim.confirm_silent(extra_rounds=2)
    if entry.certifier is not None:
        # local certification: decorate the final configuration with the
        # task's proof labels and run every node's neighborhood-only
        # verifier (see repro.certify) — the record-level witness that
        # the run ended in a *locally checkable* legitimate state
        metrics["locally_certified"] = _certified(entry.certifier, net,
                                                  sim.config)

    # task-level metrics describe the *stabilized* configuration the
    # rounds/silent/legal columns above describe — before any injected
    # faults mutate it (recovery may stabilize on a different legal tree)
    if entry.extra_metrics is not None:
        metrics.update(entry.extra_metrics(net, proto, sim, context))

    if spec.faults:
        stab_rounds, stab_moves = sim.rounds, sim.moves
        victims = inject_random_faults(sim, spec.faults, seed=None)
        run_t0 = time.perf_counter()
        try:
            recovery = sim.run(max_rounds=max_rounds)
        except BaseException:
            if recorder is not None:
                recorder.abort()
            raise
        run_seconds += time.perf_counter() - run_t0
        metrics["fault_victims"] = sorted(victims)
        metrics["recovery_rounds"] = sim.rounds - stab_rounds
        metrics["recovery_moves"] = sim.moves - stab_moves
        metrics["recovered_silent"] = recovery.silent
        metrics["recovered_legal"] = _legality(proto, net, sim.config)
        if entry.certifier is not None:
            metrics["recovered_locally_certified"] = _certified(
                entry.certifier, net, sim.config)

    if spec.events:
        # the churn phase: seeded topology events against the stabilized
        # configuration, measuring re-silence and certification-flicker
        # locality (see repro.runtime.dynamics).  The event stream's seed
        # derives from (root_seed, fingerprint) like every other stream,
        # overridable through the spec for pinned scenarios.
        from repro.runtime.dynamics.run import run_churn
        ev = spec.events_args
        churn_seed = ev.get("seed")
        if churn_seed is None:
            churn_seed = derive_seed(root_seed, fp, "churn")
        run_t0 = time.perf_counter()
        try:
            churn = run_churn(
                sim,
                kind=str(ev.get("kind", "mixed")),
                waves=int(ev.get("waves", 1)),
                seed=int(churn_seed),
                certifier_key=entry.certifier,
                recorder=recorder,
                check=bool(ev.get("check", 0)))
        except BaseException:
            if recorder is not None:
                recorder.abort()
            raise
        run_seconds += time.perf_counter() - run_t0
        metrics["churn"] = churn
        metrics["churn_silent"] = churn["silent"]
        metrics["churn_legal"] = _legality(proto, sim.net, sim.config)
        if entry.certifier is not None:
            metrics["churn_locally_certified"] = _certified(
                entry.certifier, sim.net, sim.config)

    if recorder is not None:
        recorder.finalize(silent=sim.is_silent())
    if spec.trace:
        # the derived filename, recorded whether or not a campaign
        # directory captured the bytes — keeps the record a pure
        # function of (spec, root_seed)
        metrics["trace"] = trace_name

    base["metrics"] = metrics
    # run_seconds: the simulator runs alone (throughput numbers divide by
    # this); wall_seconds additionally includes topology/init construction
    # and measurement overhead
    base["timing"] = {"wall_seconds": time.perf_counter() - t0,
                      "run_seconds": run_seconds}
    context = dict(context)
    context.update(net=net, protocol=proto, simulator=sim, result=result)
    return base, context


def run_spec(spec: ExperimentSpec, root_seed: int = 0,
             trace_dir: str | Path | None = None) -> dict[str, Any]:
    """The store-facing entry point: record only (picklable)."""
    record, _ = execute(spec, root_seed, trace_dir=trace_dir)
    return record
