"""The experiment campaign subsystem.

The paper's claims are sweep-shaped — stabilization time and register
bits as functions of n across topologies, daemons and adversarial
initializations — so the repo runs them as *campaigns*: declarative
parameter grids (:mod:`spec`), resolved through registries
(:mod:`registry`, :mod:`analyses`), executed deterministically in
parallel (:mod:`runner`, :mod:`executor`), persisted resumably
(:mod:`store`), and rendered back into the paper's tables
(:mod:`report`) — all behind one CLI (``python -m repro``, :mod:`cli`).

Determinism contract: a record is a pure function of (spec, root seed).
Per-run RNG streams are spawned from the run fingerprint, so worker
count, execution order and resume boundaries never change a result.
"""

from repro.experiments.analyses import ANALYSES, run_analysis
from repro.experiments.campaigns import CAMPAIGNS, get_campaign
from repro.experiments.executor import run_campaign
from repro.experiments.registry import (
    INITS,
    PROTOCOLS,
    TOPOLOGIES,
    tree_seeded_config,
)
from repro.experiments.report import render_experiment, render_records
from repro.experiments.runner import canonical_record, execute, run_spec
from repro.experiments.spec import (
    Campaign,
    ExperimentSpec,
    derive_seed,
    grid,
    spawn_rng,
)
from repro.experiments.store import ResultStore

__all__ = [
    "ExperimentSpec",
    "Campaign",
    "grid",
    "derive_seed",
    "spawn_rng",
    "PROTOCOLS",
    "TOPOLOGIES",
    "INITS",
    "ANALYSES",
    "tree_seeded_config",
    "run_analysis",
    "execute",
    "run_spec",
    "canonical_record",
    "ResultStore",
    "run_campaign",
    "CAMPAIGNS",
    "get_campaign",
    "render_experiment",
    "render_records",
]
