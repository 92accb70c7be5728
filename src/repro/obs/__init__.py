"""Convergence telemetry: engine probes, trace schema, and reports.

The observability layer for the reproduction.  ``trace`` defines the
schema-versioned JSONL convergence-trace format, ``probes`` holds the
recorder the engine invokes between atomic steps, ``report`` renders
ascii convergence tables and sparklines from a trace file alone, and
``workloads`` holds the pinned workloads ``repro obs record`` replays.

Probes are wired at *simulator construction* — with no recorder the
engine runs the exact pre-telemetry byte path, zero per-move branches —
so the disabled path costs nothing by construction, not by luck
(``repro obs overhead`` gates it).
"""

from repro.obs.probes import TraceRecorder
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    validate_trace,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "read_trace",
    "validate_trace",
]
