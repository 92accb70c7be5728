"""Dynamic-network & churn scenario engine (ROADMAP item 3).

Self-stabilization is *the* tool for networks that change under you;
this package makes the change happen.  It has four pieces:

* :mod:`~repro.runtime.dynamics.events` — the topology-event model
  (edge add/remove, node join/crash/recover) with a canonical-JSON
  trace round-trip;
* :mod:`~repro.runtime.dynamics.schedules` — deterministic seeded event
  generators: single events, batched churn, mobility-style waves;
* :mod:`~repro.runtime.dynamics.apply` — the application layer: each
  event produces a new immutable :class:`~repro.graphs.network.Network`
  revision and rebinds a *running* simulator to it coherently through
  the dirty set, with a rescan proof obligation at the event boundary;
* :mod:`~repro.runtime.dynamics.run` — the super-stabilization
  measurement loop: re-silence rounds/moves per churn wave plus the
  certification-flicker locality histogram, feeding the ``churn``
  campaign family (``python -m repro campaign run --campaign churn``;
  ``campaign report`` renders its EXP-CHURN tables).
"""

from repro.runtime.dynamics.apply import EventError, EventReport, apply_event, revise
from repro.runtime.dynamics.events import (
    EVENT_KINDS,
    EdgeAdd,
    EdgeRemove,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    TopologyEvent,
    dump_events,
    event_from_dict,
    load_events,
)
from repro.runtime.dynamics.run import run_churn
from repro.runtime.dynamics.schedules import ChurnSchedule, materialize_schedule

__all__ = [
    "TopologyEvent",
    "EdgeAdd",
    "EdgeRemove",
    "NodeJoin",
    "NodeCrash",
    "NodeRecover",
    "EVENT_KINDS",
    "event_from_dict",
    "dump_events",
    "load_events",
    "EventError",
    "EventReport",
    "apply_event",
    "revise",
    "run_churn",
    "ChurnSchedule",
    "materialize_schedule",
]
