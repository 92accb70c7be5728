"""The convergence-trace format: schema, canonical emission, validation.

A trace is one JSONL file per execution — a ``header`` line describing
the workload and the engine configuration that produced it, one
``round`` line per executed round, optional ``event`` lines marking
topology events between rounds (schema v2, the dynamics engine), and an
``end`` line carrying the final totals.  The format is schema
versioned, self-describing, and validated before anything consumes it.

Two properties are load-bearing:

* **Byte determinism.**  Lines are canonical JSON (sorted keys, no
  whitespace) and carry *no* wall-clock fields — two runs of the same
  pinned workload produce byte-identical traces, which is what the
  determinism tests diff.  Timing lives in the benchmark
  (``perfbench/``); traces record only the convergence trajectory.
* **Torn-tail honesty.**  A trace being written when the process dies
  ends mid-line.  Like the campaign result store, validation treats a
  torn *final* line as a distinct, recognizable condition (the file is
  an honest prefix) while garbage *mid-file* is corruption, full stop.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "dump_line",
    "make_header",
    "make_event",
    "make_end",
    "validate_trace",
    "read_trace",
]

#: Bump on incompatible trace-shape changes; validate_trace refuses
#: traces written under any other version.  v2 added ``event`` rows
#: (topology events interleaved between rounds).
TRACE_SCHEMA_VERSION = 2

#: Keys every header line must carry.
_REQUIRED_HEADER_KEYS = ("kind", "schema", "protocol", "scheduler", "n",
                         "engine", "probes")

#: Keys every round line must carry (probe columns beyond these are
#: declared by the header's ``probes`` list and validated per-trace).
_REQUIRED_ROUND_KEYS = ("kind", "round", "moves", "enabled_start",
                        "enabled_end")

#: Keys every event line must carry (schema v2): which round it landed
#: after, the event payload, and the post-event network/enabled sizes.
_REQUIRED_EVENT_KEYS = ("kind", "after_round", "event", "n", "enabled")

#: Keys the end line must carry (the totals the validator cross-checks
#: against the per-round rows).
_REQUIRED_END_KEYS = ("kind", "rounds", "moves", "silent")


def dump_line(obj: dict[str, Any]) -> str:
    """Canonical single-line JSON — the only serialization traces use.

    Sorted keys and fixed separators make emission a pure function of
    the payload, which is what buys byte-identical traces across
    repeats and engine paths.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def make_header(*, protocol: str, scheduler: str, n: int,
                engine: dict[str, Any], probes: list[str],
                **extra: Any) -> dict[str, Any]:
    """Assemble a header line payload (``extra`` for workload/shards)."""
    header: dict[str, Any] = {
        "kind": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "protocol": protocol,
        "scheduler": scheduler,
        "n": n,
        "engine": engine,
        "probes": sorted(probes),
    }
    header.update(extra)
    return header


def make_event(*, after_round: int, event: dict[str, Any], n: int,
               enabled: int) -> dict[str, Any]:
    """Assemble a topology-event line payload (schema v2).

    ``after_round`` pins the event between rounds — it equals the number
    of round records emitted before it, which the validator re-derives.
    """
    return {"kind": "event", "after_round": after_round, "event": event,
            "n": n, "enabled": enabled}


def make_end(*, rounds: int, moves: int, silent: bool) -> dict[str, Any]:
    """Assemble the end line payload (totals the validator cross-checks)."""
    return {"kind": "end", "rounds": rounds, "moves": moves,
            "silent": silent}


def _split_lines(text: str) -> tuple[list[str], bool]:
    """Complete lines plus whether the file ended with a torn fragment."""
    lines = text.split("\n")
    torn = lines[-1] != ""  # no trailing newline: last line is torn
    if not torn:
        lines = lines[:-1]  # drop the empty element after the final \n
    return lines, torn


def validate_trace(path: str | Path) -> list[str]:
    """Schema errors as human-readable strings (empty when valid).

    Checks the header, row shape, round numbering (consecutive from 1),
    and that the end line's totals equal the per-round sums exactly —
    a trace whose footer disagrees with its own rows is rejected.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        return [f"unreadable trace: {exc}"]
    if not text:
        return ["empty trace file"]

    lines, torn = _split_lines(text)
    errors: list[str] = []
    records: list[dict[str, Any]] = []
    for i, ln in enumerate(lines, start=1):
        is_last = i == len(lines)
        if not ln.strip():
            errors.append(f"line {i}: blank line inside trace")
            continue
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError:
            if is_last:
                errors.append(f"line {i}: torn tail (unparseable final "
                              "line — truncated write)")
            else:
                errors.append(f"line {i}: corrupt record mid-file")
            continue
        if is_last and torn:
            # parseable but unterminated: still a torn tail — the writer
            # terminates every line, so the trailing newline is part of
            # the record's byte contract
            errors.append(f"line {i}: torn tail (final line not "
                          "newline-terminated)")
        if not isinstance(rec, dict):
            errors.append(f"line {i}: record is not an object")
            continue
        records.append(rec)
    if errors:
        return errors

    if not records or records[0].get("kind") != "header":
        return ["line 1: first record is not a header"]
    header = records[0]
    for key in _REQUIRED_HEADER_KEYS:
        if key not in header:
            errors.append(f"header: missing {key!r}")
    if header.get("schema") != TRACE_SCHEMA_VERSION:
        errors.append(f"header: schema version {header.get('schema')!r} "
                      f"!= {TRACE_SCHEMA_VERSION}")
    if errors:
        return errors

    if records[-1].get("kind") != "end":
        return ["missing end record (trace never finalized)"]
    end = records[-1]
    for key in _REQUIRED_END_KEYS:
        if key not in end:
            errors.append(f"end: missing {key!r}")
    if errors:
        return errors

    rows = records[1:-1]
    probes = header.get("probes", [])
    total_moves = 0
    n_rounds = 0
    for pos, row in enumerate(rows, start=1):
        kind = row.get("kind")
        if kind == "event":
            # v2 topology-event marker: pinned to the round count at the
            # moment it landed, never advancing the round numbering
            where = f"record {pos} (event)"
            for key in _REQUIRED_EVENT_KEYS:
                if key not in row:
                    errors.append(f"{where}: missing {key!r}")
            if row.get("after_round") != n_rounds:
                errors.append(
                    f"{where}: after_round {row.get('after_round')!r} "
                    f"(expected {n_rounds}, the rounds executed so far)")
            continue
        where = f"round record {n_rounds + 1}"
        if kind != "round":
            errors.append(f"{where}: kind {kind!r} != 'round'")
            continue
        n_rounds += 1
        for key in _REQUIRED_ROUND_KEYS:
            if key not in row:
                errors.append(f"{where}: missing {key!r}")
        for probe in probes:
            if probe not in row:
                errors.append(f"{where}: missing declared probe column "
                              f"{probe!r}")
        if row.get("round") != n_rounds:
            errors.append(f"{where}: round number {row.get('round')!r} "
                          f"(expected consecutive {n_rounds})")
        moves = row.get("moves")
        if isinstance(moves, int):
            total_moves += moves
    if errors:
        return errors

    if end["rounds"] != n_rounds:
        errors.append(f"end: rounds {end['rounds']!r} != {n_rounds} "
                      "round records")
    if end["moves"] != total_moves:
        errors.append(f"end: moves {end['moves']!r} != per-round sum "
                      f"{total_moves}")
    return errors


def read_trace(path: str | Path) -> tuple[dict[str, Any],
                                          list[dict[str, Any]],
                                          dict[str, Any]]:
    """Validate then parse a trace into ``(header, rounds, end)``."""
    errors = validate_trace(path)
    if errors:
        raise ValueError(f"{path}: invalid trace: {errors}")
    records = [json.loads(ln)
               for ln in Path(path).read_text().splitlines() if ln.strip()]
    return records[0], records[1:-1], records[-1]
