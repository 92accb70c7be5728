"""``repro.obs`` — the convergence telemetry layer, end to end.

The claims under test, in the order the PR makes them:

* **determinism** — a trace is a pure function of the pinned run: two
  recordings are byte-identical, and the header's self-describing
  ``engine`` field names the one slot-rule path;
* **the pinned acceptance trajectory** — on acceptance-sst-512 the per
  round rows sum to exactly the pinned 17,265 moves / 19 rounds, and
  the trace validates;
* **schema honesty** — ``validate_trace`` distinguishes a torn tail
  (truncated write) from mid-file corruption from a capture that never
  finalized;
* **zero-overhead seam** — without a recorder ``run_round`` is the
  plain class method (nothing shadows it on the instance); with one,
  the observed loop shadows it;
* **integration** — campaign specs with ``trace=1`` persist a
  validating trace named by fingerprint (and untraced specs serialize
  exactly as before the telemetry layer existed), the sharded engine
  streams per-shard rows, and the ``repro obs`` CLI drives all of it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import (
    SCHEDULERS,
    build_config,
    build_network,
    build_protocol,
)
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.graphs.implicit import implicit_grid
from repro.obs.probes import TraceRecorder
from repro.obs.report import render_report, render_row, sparkline
from repro.obs.trace import TRACE_SCHEMA_VERSION, read_trace, validate_trace
from repro.runtime.sharding import ShardedSimulator
from repro.runtime.simulator import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _acceptance_sim(n=48, recorder=None):
    """The acceptance workload's shape at any n (see obs.workloads)."""
    net = build_network("random", {"n": n, "seed": 42}, random.Random(0))
    proto, _ = build_protocol("sst")
    config, _ = build_config("arbitrary", net, proto, random.Random(1),
                             {"seed": 7})
    scheduler = SCHEDULERS["central-random"](3)
    return Simulator(net, proto, scheduler, config=config,
                     recorder=recorder)


def _run_to_silence(sim):
    while sim.run_round():
        pass
    return sim


def _record(path, n=48):
    recorder = TraceRecorder(path)
    sim = _run_to_silence(_acceptance_sim(n=n, recorder=recorder))
    recorder.finalize(silent=sim.is_silent())
    return sim


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_repeat_recordings_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _record(a)
    _record(b)
    assert a.read_bytes() == b.read_bytes()
    assert validate_trace(a) == []


def test_header_names_the_one_engine_path(tmp_path):
    """Every single-process run evaluates through the slot rule, so the
    header's ``engine`` field is constant and rows carry no ``vector``
    count."""
    path = tmp_path / "t.jsonl"
    _record(path)
    header, rows, _ = read_trace(path)
    assert header["engine"] == {"slot": True, "fused_capable": True}
    assert rows and not any("vector" in row for row in rows)


def test_observed_run_is_bit_identical_to_unobserved(tmp_path):
    """Attaching a recorder must not change a single move: the observed
    loop replays the fused path's exact scheduler draws."""
    plain = _run_to_silence(_acceptance_sim())
    traced = _record(tmp_path / "t.jsonl")
    assert (traced.moves, traced.rounds) == (plain.moves, plain.rounds)
    assert traced.rows == plain.rows


# ----------------------------------------------------------------------
# the pinned acceptance trajectory
# ----------------------------------------------------------------------

def test_acceptance_trace_round_trips_with_pinned_totals(tmp_path):
    path = tmp_path / "acceptance.jsonl"
    _record(path, n=512)
    assert validate_trace(path) == []
    header, rows, end = read_trace(path)
    assert header["schema"] == TRACE_SCHEMA_VERSION
    assert header["n"] == 512
    assert "potential" in header["probes"]
    # the number every optimization PR is judged on, now per round
    assert end["moves"] == 17265
    assert end["rounds"] == 19
    assert end["silent"] is True
    assert sum(r["moves"] for r in rows) == 17265
    assert len(rows) == 19
    assert rows[-1]["enabled_end"] == 0
    # the potential column is present every round and descends overall
    # (not per round: the packed-claim sum may tick up while a false
    # root's claim propagates before being rejected)
    potentials = [header["potential_initial"]] + [r["potential"]
                                                  for r in rows]
    assert all(isinstance(p, int) for p in potentials)
    assert potentials[-1] < potentials[0]


# ----------------------------------------------------------------------
# schema honesty: validate_trace
# ----------------------------------------------------------------------

def test_validate_rejects_unterminated_tail(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    problems = validate_trace(path)
    assert any("torn tail" in p and "not newline-terminated" in p
               for p in problems)


def test_validate_rejects_truncated_final_line(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path)
    path.write_bytes(path.read_bytes()[:-12])  # cut into the end record
    problems = validate_trace(path)
    assert any("torn tail" in p for p in problems)


def test_validate_rejects_midfile_corruption(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"kind": "round", "ro\n'
    path.write_bytes(b"".join(lines))
    problems = validate_trace(path)
    assert any("corrupt record mid-file" in p for p in problems)


def test_validate_rejects_missing_end(tmp_path):
    path = tmp_path / "t.jsonl"
    recorder = TraceRecorder(path)
    sim = _acceptance_sim(recorder=recorder)
    sim.run_round()
    recorder.abort()  # the honest crash shape: no end record
    problems = validate_trace(path)
    assert any("never finalized" in p for p in problems)


def test_validate_cross_checks_end_totals(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path)
    lines = path.read_text().splitlines(keepends=True)
    end = json.loads(lines[-1])
    end["moves"] += 1
    lines[-1] = json.dumps(end, sort_keys=True,
                           separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    assert any("moves" in p for p in validate_trace(path))


# ----------------------------------------------------------------------
# the zero-overhead seam
# ----------------------------------------------------------------------

def test_disabled_path_leaves_run_round_unshadowed(tmp_path):
    sim = _acceptance_sim()
    assert "run_round" not in vars(sim)
    assert type(sim).run_round is Simulator.run_round
    recorder = TraceRecorder(tmp_path / "t.jsonl")
    observed = _acceptance_sim(recorder=recorder)
    assert "run_round" in vars(observed)
    recorder.abort()


def test_cli_overhead_gate_passes_and_fails_structurally(monkeypatch,
                                                        capsys):
    from repro.experiments.cli import main
    from repro.obs import workloads

    argv = ["obs", "overhead", "--workload", "smoke-sst-48"]
    assert main(argv) == 0
    assert "overhead gate: PASS" in capsys.readouterr().out

    real = workloads.build_simulator

    def shadowed(workload, **kwargs):
        sim = real(workload, **kwargs)
        if kwargs.get("recorder") is None:
            # what an accidentally engaged seam looks like
            sim.run_round = sim.run_round
        return sim

    monkeypatch.setattr(workloads, "build_simulator", shadowed)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "FAIL: recorder=None shadowed run_round" in captured.err
    assert "PASS" not in captured.out


def test_recorder_serves_exactly_one_execution(tmp_path):
    recorder = TraceRecorder(tmp_path / "t.jsonl")
    _acceptance_sim(recorder=recorder)
    with pytest.raises(RuntimeError, match="already attached"):
        _acceptance_sim(recorder=recorder)
    recorder.abort()


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------

_TRACED_SPEC = dict(
    experiment="exp1-convergence", protocol="sst", topology="random",
    topo_params={"n": 8, "seed": 3}, scheduler="central-random",
    init="arbitrary", init_params={"seed": 1})


def test_untraced_specs_serialize_exactly_as_before():
    # trace=0 must round-trip invisibly: every pre-telemetry
    # fingerprint (hence every existing result store) is preserved
    spec = ExperimentSpec(**_TRACED_SPEC)
    assert "trace" not in spec.to_dict()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_traced_spec_persists_validating_trace(tmp_path):
    spec = ExperimentSpec(**_TRACED_SPEC, trace=1)
    record = run_spec(spec, root_seed=0, trace_dir=tmp_path)
    name = record["metrics"]["trace"]
    assert name == f"trace-{spec.fingerprint(0)}.jsonl"
    trace_path = tmp_path / name
    assert validate_trace(trace_path) == []
    header, rows, end = read_trace(trace_path)
    assert header["fingerprint"] == spec.fingerprint(0)
    assert header["experiment"] == spec.experiment
    # sst has a local certifier, so the flicker column rides along
    assert "certified" in header["probes"]
    assert all("certified" in r for r in rows)
    assert rows[-1]["certified"] == 1  # silent => locally certified
    assert end["moves"] == record["metrics"]["moves"]


def test_traced_spec_without_trace_dir_writes_nothing(tmp_path):
    # the record still names the trace (it is derived, pure data), but
    # no bytes land anywhere without a directory to persist into
    spec = ExperimentSpec(**_TRACED_SPEC, trace=1)
    record = run_spec(spec, root_seed=0)
    assert record["metrics"]["trace"].startswith("trace-")
    assert list(tmp_path.iterdir()) == []


def test_trace_flag_does_not_change_run_results(tmp_path):
    plain = run_spec(ExperimentSpec(**_TRACED_SPEC), root_seed=0)
    traced = run_spec(ExperimentSpec(**_TRACED_SPEC, trace=1),
                      root_seed=0, trace_dir=tmp_path)
    for key in ("moves", "rounds", "silent"):
        assert plain["metrics"][key] == traced["metrics"][key]


# ----------------------------------------------------------------------
# sharded integration
# ----------------------------------------------------------------------

def _sst_factory():
    return build_protocol("sst")[0]


def test_sharded_trace_streams_per_shard_rows(tmp_path):
    path = tmp_path / "sharded.jsonl"
    topo = implicit_grid(4, 8)
    with ShardedSimulator(topo, _sst_factory, 2, init_seed=7) as sharded:
        result = sharded.run(max_rounds=10_000,
                             recorder=TraceRecorder(path))
    assert result.silent
    assert validate_trace(path) == []
    header, rows, end = read_trace(path)
    assert header["scheduler"] == "synchronous-sharded"
    assert header["engine"]["shards"] == 2
    assert "per_shard" in header["probes"]
    assert (end["rounds"], end["moves"]) == (result.rounds, result.moves)
    for row in rows:
        assert sum(row["per_shard"]) == row["moves"]
    # the synchronous daemon moves every enabled node: the next round's
    # total is exactly this round's enabled_end, and silence ends at 0
    for prev, nxt in zip(rows, rows[1:]):
        assert prev["enabled_end"] == nxt["moves"]
    assert rows[-1]["enabled_end"] == 0


def test_sharded_budget_stop_leaves_enabled_end_open(tmp_path):
    path = tmp_path / "budget.jsonl"
    topo = implicit_grid(4, 8)
    with ShardedSimulator(topo, _sst_factory, 2, init_seed=7) as sharded:
        sharded.run(max_rounds=2, require_silence=False,
                    recorder=TraceRecorder(path))
    assert validate_trace(path) == []
    _, rows, end = read_trace(path)
    assert end["silent"] is False
    assert len(rows) == 2
    # the budget stopped the run before round 3 revealed how many of
    # round 2's writes left nodes enabled: the column is honestly open
    assert rows[-1]["enabled_end"] is None


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    decay = sparkline([8.0, 4.0, 2.0, 1.0])
    assert len(decay) == 4 and decay[0] == "█" and decay[-1] == "▁"
    assert len(sparkline([float(i) for i in range(500)], width=60)) == 60


def test_report_renders_summary_and_table(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path)
    out = render_report(*read_trace(path))
    assert "enabled-set decay" in out
    assert "moves per round" in out
    assert "potential descent" in out
    assert "round" in out and "enabled_start" in out


def test_report_elides_long_traces(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, n=512)
    out = render_report(*read_trace(path), max_rows=10)
    assert "rounds elided" in out


def test_render_row_is_one_line():
    line = render_row({"round": 3, "moves": 17, "enabled_start": 20,
                       "enabled_end": 5, "potential": 99})
    assert "\n" not in line
    assert "round" in line and "potential 99" in line


# ----------------------------------------------------------------------
# the CLI, end to end
# ----------------------------------------------------------------------

def test_cli_record_report_validate(tmp_path):
    out = tmp_path / "smoke.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "record",
         "--workload", "smoke-sst-48", "--out", str(out)],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert "silent=True" in proc.stdout
    assert validate_trace(out) == []
    header, _, _ = read_trace(out)
    assert header["workload"] == "smoke-sst-48"

    report = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "report", str(out)],
        capture_output=True, text=True, env=_env())
    assert report.returncode == 0, report.stderr
    assert "enabled-set decay" in report.stdout

    ok = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "validate", str(out)],
        capture_output=True, text=True, env=_env())
    assert ok.returncode == 0 and ": ok" in ok.stdout

    out.write_bytes(out.read_bytes().rstrip(b"\n"))
    bad = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "validate", str(out)],
        capture_output=True, text=True, env=_env())
    assert bad.returncode == 1 and "torn tail" in bad.stdout


def test_cli_tail_follows_to_the_end_record(tmp_path):
    out = tmp_path / "t.jsonl"
    _record(out)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "tail", str(out),
         "--timeout", "10"],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert "end: " in proc.stdout
    assert proc.stdout.count("round") >= 2


def test_cli_unknown_workload_lists_the_registry(tmp_path):
    from repro.obs.workloads import WORKLOADS
    out = tmp_path / "never.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "record",
         "--workload", "no-such-workload", "--out", str(out)],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 1
    assert "unknown workload 'no-such-workload'" in proc.stderr
    for name in WORKLOADS:
        assert name in proc.stderr
    assert not out.exists()


def test_cli_overhead_refuses_a_sharded_workload():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "overhead",
         "--workload", "smoke-shard-sst-512"],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 1
    assert "pick an unsharded workload" in proc.stderr
    assert "structural" not in proc.stdout
