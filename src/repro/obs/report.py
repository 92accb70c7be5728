"""Ascii rendering of convergence traces: tables and sparklines.

Everything here is a pure function of a parsed trace — a report is
reproducible from the JSONL file alone, with no engine, network, or
protocol in sight.  That is the point: the trace is the durable
artifact, the rendering is a view.
"""

from __future__ import annotations

from typing import Any

__all__ = ["sparkline", "render_report", "render_row"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 60) -> str:
    """Render a numeric series as unicode block characters.

    Series longer than ``width`` are bucketed by max (the convergence
    plots care about the envelope of the decay, not individual rounds).
    An all-equal series renders flat at the lowest block.
    """
    if not values:
        return ""
    if len(values) > width:
        # bucket by max: preserves the envelope
        per = len(values) / width
        bucketed = []
        for i in range(width):
            lo, hi = int(i * per), max(int((i + 1) * per), int(i * per) + 1)
            bucketed.append(max(values[lo:hi]))
        values = bucketed
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[idx])
    return "".join(out)


def render_row(row: dict[str, Any]) -> str:
    """One-line rendering of a round record (the ``tail`` line shape)."""
    parts = [f"round {row.get('round', '?'):>4}",
             f"moves {row.get('moves', '?'):>7}",
             f"enabled {row.get('enabled_start', '?'):>6} "
             f"-> {row.get('enabled_end', '?'):>6}"]
    if "potential" in row:
        parts.append(f"potential {row['potential']}")
    if "per_shard" in row:
        parts.append(f"per_shard {row['per_shard']}")
    return "  ".join(parts)


def _fmt_table(columns: list[str], rows: list[list[Any]]) -> list[str]:
    cells = [[str(c) for c in r] for r in rows]
    widths = [max(len(columns[i]), *(len(r[i]) for r in cells))
              if cells else len(columns[i]) for i in range(len(columns))]
    out = ["  ".join(c.rjust(w) for c, w in zip(columns, widths))]
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return out


def render_report(header: dict[str, Any], rows: list[dict[str, Any]],
                  end: dict[str, Any], *, max_rows: int = 40) -> str:
    """The full ``repro obs report`` rendering of one parsed trace."""
    lines: list[str] = []
    events = [row for row in rows if row.get("kind") == "event"]
    rows = [row for row in rows if row.get("kind") != "event"]
    engine = header.get("engine", {})
    lines.append(
        f"trace: protocol={header.get('protocol')} "
        f"scheduler={header.get('scheduler')} n={header.get('n')}")
    lines.append(
        f"engine: " + " ".join(f"{k}={v}" for k, v in sorted(engine.items()))
        + f"  probes: {','.join(header.get('probes', [])) or '(none)'}")
    if "workload" in header:
        lines.append(f"workload: {header['workload']}")
    lines.append(
        f"outcome: rounds={end['rounds']} moves={end['moves']} "
        f"silent={end['silent']}")
    if events:
        lines.append(f"topology events: {len(events)}")
        for ev in events:
            payload = ev.get("event", {})
            lines.append(f"  after round {ev.get('after_round')}: "
                         f"{payload.get('kind', '?')} {payload}  "
                         f"-> n={ev.get('n')} enabled={ev.get('enabled')}")
    lines.append("")

    # sparklines: the convergence trajectory at a glance.  The initial
    # configuration's values (header) prefix the per-round series so the
    # first descent step is visible.
    enabled = [row.get("enabled_end", 0) for row in rows]
    if "enabled_initial" in header:
        enabled = [header["enabled_initial"], *enabled]
    lines.append(f"enabled-set decay   {sparkline([float(v) for v in enabled])}")
    lines.append(f"                    start={enabled[0]} end={enabled[-1]}"
                 if enabled else "")
    moves = [float(row.get("moves", 0)) for row in rows]
    lines.append(f"moves per round     {sparkline(moves)}")
    potentials = [row["potential"] for row in rows if "potential" in row]
    if potentials:
        series = potentials
        if "potential_initial" in header:
            series = [header["potential_initial"], *series]
        lines.append(f"potential descent   "
                     f"{sparkline([float(v) for v in series])}")
        lines.append(f"                    start={series[0]} end={series[-1]}")
    lines.append("")

    # the per-round table (head and tail when the trace is long)
    base_cols = ["round", "moves", "enabled_start", "enabled_end"]
    optional = [c for c in ("selections", "dirty_peak", "settled", "potential",
                            "certified", "per_shard")
                if any(c in row for row in rows)]
    columns = base_cols + optional
    shown = rows
    elided = 0
    if len(rows) > max_rows:
        head = rows[:max_rows // 2]
        tail = rows[-(max_rows - len(head)):]
        elided = len(rows) - len(head) - len(tail)
        shown = head + [{}] + tail
    table_rows = []
    for row in shown:
        if not row:
            table_rows.append([f"... {elided} rounds elided ..."]
                              + [""] * (len(columns) - 1))
            continue
        table_rows.append([row.get(c, "") for c in columns])
    lines.extend(_fmt_table(columns, table_rows))
    return "\n".join(lines) + "\n"
