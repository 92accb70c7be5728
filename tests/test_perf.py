"""Tests for the perf subsystem: workload registry, harness, emitter, CLI.

Covers the satellite contract of the perf PR:

* workload-registry determinism (pinned seeds, stable names, the
  acceptance workload's exact PR-1 parameters);
* BENCH report schema round-trip through the emitter;
* baseline comparison semantics (tolerance, skips, zero-throughput);
* a ``--smoke`` subprocess run asserting ``BENCH_latest.json`` is
  written and parseable;
* the dirty-interpreter refusal gate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf.emitter import (
    SCHEMA_VERSION,
    compare_reports,
    load_report,
    make_report,
    validate_report,
    write_report,
)
from repro.perf.harness import interpreter_report, run_workload
from repro.perf.workloads import WORKLOADS, Workload, select_workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _tiny_workload(**overrides):
    defaults = dict(
        name="test-sst-ring",
        family="engine",
        protocol="sst",
        topology="ring",
        topo_params=(("n", 12), ("seed", 3)),
        scheduler="central-random",
        scheduler_seed=9,
        init="arbitrary",
        init_params=(("seed", 4),),
        repeats=2,
        tags=("test",),
    )
    defaults.update(overrides)
    return Workload(**defaults)


class TestWorkloadRegistry:
    def test_names_are_unique_and_stable(self):
        assert len(WORKLOADS) == len({w.name for w in WORKLOADS.values()})
        for name, w in WORKLOADS.items():
            assert name == w.name

    def test_acceptance_workload_pins_pr1_parameters(self):
        w = WORKLOADS["acceptance-sst-512"]
        assert w.protocol == "sst"
        assert w.topology == "random"
        assert dict(w.topo_params) == {"n": 512, "seed": 42}
        assert w.scheduler == "central-random"
        assert w.scheduler_seed == 3
        assert dict(w.init_params) == {"seed": 7}
        # run to silence: no budget caps on the acceptance number
        assert w.round_budget == 0 and w.move_budget == 0
        assert "acceptance" in w.tags

    def test_sweep_families_cover_the_pinned_sizes(self):
        for family in ("bfs", "mst", "mdst", "nca"):
            for n in (128, 512, 2048):
                assert f"{family}-{n}" in WORKLOADS, f"missing {family}-{n}"

    def test_selection_modes(self):
        smoke = select_workloads(smoke=True)
        full = select_workloads()
        assert {w.name for w in smoke} == {
            "acceptance-sst-512",
            "smoke-sst-48",
            "smoke-shard-sst-512",
            "smoke-churn-sst-48",
            "smoke-bfs-48",
            "smoke-mst-48",
            "smoke-mdst-48",
            "smoke-nca-48",
            "smoke-guided-bfs-48",
            "smoke-guided-mst-48",
            "smoke-guided-mdst-48",
        }
        assert all("full" in w.tags for w in full)
        # the slow opt-in workload is reachable by name only
        assert "mdst-2048" not in {w.name for w in full}
        assert select_workloads(["mdst-2048"])[0].name == "mdst-2048"
        with pytest.raises(KeyError):
            select_workloads(["no-such-workload"])

    def test_registry_rebuild_is_deterministic(self):
        from repro.perf.workloads import _build_registry

        assert _build_registry() == WORKLOADS


class TestHarness:
    def test_run_workload_is_deterministic(self):
        a = run_workload(_tiny_workload(), warmup=False)
        b = run_workload(_tiny_workload(), warmup=False)
        keys = ("moves", "rounds", "silent", "n", "m")
        assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
        assert a["silent"] is True
        assert a["moves"] > 0
        assert a["moves_per_sec"] > 0

    def test_repeat_disagreement_is_an_error(self, monkeypatch):
        import repro.perf.harness as harness

        outcomes = iter(
            [(0.1, 10, 2, True, 12, 12), (0.1, 11, 2, True, 12, 12)]
        )
        monkeypatch.setattr(
            harness, "_one_execution", lambda w: next(outcomes)
        )
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_workload(_tiny_workload(), warmup=False)

    def test_move_budget_step_mode(self):
        w = _tiny_workload(
            name="test-step-mode", round_budget=0, move_budget=5, repeats=1
        )
        record = run_workload(w, warmup=False)
        # central daemon: one move per step, budget checked between steps
        assert 0 < record["moves"] <= 5
        assert record["rounds"] == 0  # step mode never completes rounds

    def test_interpreter_report_shape(self):
        report = interpreter_report()
        assert isinstance(report["dirty"], list)
        assert isinstance(report["warnings"], list)
        assert report["implementation"]
        assert report["python"]

    def test_refuses_to_measure_during_obs_capture(self, monkeypatch):
        # an active trace capture puts probe work inside the timed loop;
        # the harness must refuse rather than record poisoned numbers
        monkeypatch.setenv("REPRO_OBS_CAPTURE", "1")
        with pytest.raises(RuntimeError, match="refusing to measure"):
            run_workload(_tiny_workload(), warmup=False)
        assert any("obs trace capture" in reason
                   for reason in interpreter_report()["dirty"])


class TestEmitter:
    def _report(self):
        record = run_workload(_tiny_workload(), repeats=1, warmup=False)
        return make_report(
            "custom", {"test-sst-ring": record}, interpreter_report()
        )

    def test_schema_round_trip(self, tmp_path):
        report = self._report()
        assert validate_report(report) == []
        latest, dated = write_report(report, tmp_path)
        assert latest.name == "BENCH_latest.json"
        assert dated.name.startswith("BENCH_2") and dated.suffix == ".json"
        assert load_report(latest) == report
        assert json.loads(dated.read_text()) == report

    def test_validate_rejects_broken_reports(self):
        assert validate_report({"schema": SCHEMA_VERSION}) != []
        assert validate_report({"schema": 999, "workloads": {}}) != []
        report = self._report()
        del report["workloads"]["test-sst-ring"]["moves_per_sec"]
        assert any("moves_per_sec" in e for e in validate_report(report))
        with pytest.raises(ValueError):
            write_report(report, ".")

    def test_compare_self_is_clean(self):
        report = self._report()
        diff = compare_reports(report, report, tolerance=2.5)
        assert diff["ok"] and diff["regressions"] == []

    def test_compare_flags_slowdowns_beyond_tolerance(self):
        current = self._report()
        baseline = json.loads(json.dumps(current))
        name = "test-sst-ring"
        fast = baseline["workloads"][name]
        fast["moves_per_sec"] = current["workloads"][name]["moves_per_sec"] * 3
        diff = compare_reports(current, baseline, tolerance=2.5)
        assert not diff["ok"] and diff["regressions"] == [name]
        # within tolerance: ok
        fast["moves_per_sec"] = current["workloads"][name]["moves_per_sec"] * 2
        assert compare_reports(current, baseline, tolerance=2.5)["ok"]

    def test_compare_skips_mismatched_workloads(self):
        current, baseline = self._report(), self._report()
        baseline["workloads"]["only-in-baseline"] = dict(
            baseline["workloads"]["test-sst-ring"]
        )
        diff = compare_reports(current, baseline)
        skipped = [r for r in diff["rows"] if r["status"] == "skipped"]
        assert skipped and diff["ok"]

    def test_compare_with_zero_overlap_fails_the_gate(self):
        current, baseline = self._report(), self._report()
        baseline["workloads"] = {
            "renamed": baseline["workloads"]["test-sst-ring"]
        }
        diff = compare_reports(current, baseline)
        assert diff["compared"] == 0
        assert not diff["ok"]

    def test_compare_zero_throughput_always_fails(self):
        current, baseline = self._report(), self._report()
        current["workloads"]["test-sst-ring"]["moves_per_sec"] = 0.0
        diff = compare_reports(current, baseline)
        assert not diff["ok"]


class TestBenchCLI:
    def test_smoke_subprocess_writes_parseable_bench_latest(self, tmp_path):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "bench",
                "--smoke",
                "--json",
                "--repeats",
                "1",
                "--no-warmup",
                "--out",
                str(tmp_path),
                "--quiet",
            ],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=600,
        )
        assert out.returncode == 0, out.stderr
        latest = tmp_path / "BENCH_latest.json"
        assert latest.exists()
        report = load_report(latest)
        assert report["mode"] == "smoke"
        for name, rec in report["workloads"].items():
            assert rec["moves_per_sec"] > 0, name
        # --json mirrors the report on stdout
        assert json.loads(out.stdout) == report

    def test_baseline_gate_passes_against_itself(self, tmp_path):
        # the workload takes ~2 ms, so one cold run spreads ~3x between
        # processes; warmup + median-of-5 keeps the 2.5x gate meaningful
        args = [
            sys.executable,
            "-m",
            "repro",
            "bench",
            "--workload",
            "smoke-bfs-48",
            "--repeats",
            "5",
            "--out",
            str(tmp_path),
            "--quiet",
        ]
        first = subprocess.run(
            args, capture_output=True, text=True, env=_env(), timeout=300
        )
        assert first.returncode == 0, first.stderr
        baseline = tmp_path / "baseline.json"
        (tmp_path / "BENCH_latest.json").rename(baseline)
        second = subprocess.run(
            args + ["--baseline", str(baseline), "--tolerance", "2.5"],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        assert second.returncode == 0, second.stderr + second.stdout
        assert "perf gate ok" in second.stdout

    def test_dirty_interpreter_refuses_to_record(self, tmp_path):
        code = (
            "import sys\n"
            "sys.settrace(lambda *a: None)\n"
            "from repro.perf.cli import main\n"
            "sys.exit(main(['--smoke', '--out', sys.argv[1]]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        assert out.returncode == 2
        assert "dirty interpreter" in out.stderr
        assert not (tmp_path / "BENCH_latest.json").exists()

    def test_list_names_every_workload(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--list"],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        assert out.returncode == 0
        for name in WORKLOADS:
            assert name in out.stdout
