"""The experiment campaign subsystem: specs, store, executor, CLI.

Covers the contracts the orchestration layer is built on: stable
fingerprints, JSONL round-trips with torn-tail tolerance, resume without
duplicate work (including a simulated mid-campaign kill), bit-identical
results for any worker count, the real ``python -m repro`` CLI, and the
paper's claims as ``campaign report`` checks them on the ``full`` grid.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    CAMPAIGNS,
    Campaign,
    ExperimentSpec,
    ResultStore,
    canonical_record,
    execute,
    get_campaign,
    grid,
    run_campaign,
    run_spec,
)
from repro.experiments import runner
from repro.experiments.campaigns import EXCLUDED_DAEMONS
from repro.experiments.cli import main as repro_main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tiny_campaign(root_seed: int = 0) -> Campaign:
    specs = [
        ExperimentSpec(experiment="EXP-TINY", protocol="sst",
                       topology="ring", topo_params={"n": 6, "seed": 1},
                       scheduler=sched, init="arbitrary", replicate=rep)
        for sched in ("synchronous", "central-random")
        for rep in (0, 1)
    ]
    specs.append(ExperimentSpec(
        experiment="EXP-TINY", protocol="sst", topology="ring",
        topo_params={"n": 6, "seed": 1}, scheduler="central-min-id",
        init="arbitrary", skip="documented exclusion"))
    specs.append(ExperimentSpec(
        experiment="EXP-TINY-FAULTS", protocol="malleable-tree",
        topology="random", topo_params={"n": 8, "seed": 2},
        scheduler="synchronous", init="arbitrary", faults=2))
    return Campaign("tiny", "executor test campaign", tuple(specs),
                    root_seed)


# ----------------------------------------------------------------------
# spec model
# ----------------------------------------------------------------------

class TestSpec:
    def test_fingerprint_ignores_param_order(self):
        a = ExperimentSpec(experiment="E", protocol="sst", topology="ring",
                           topo_params={"n": 6, "seed": 1})
        b = ExperimentSpec(experiment="E", protocol="sst", topology="ring",
                           topo_params={"seed": 1, "n": 6})
        assert a == b
        assert a.fingerprint(0) == b.fingerprint(0)

    def test_fingerprint_sensitivity(self):
        base = ExperimentSpec(experiment="E", protocol="sst",
                              topology="ring", topo_params={"n": 6})
        assert base.fingerprint(0) != base.fingerprint(1)  # root seed
        bigger = ExperimentSpec(experiment="E", protocol="sst",
                                topology="ring", topo_params={"n": 7})
        assert base.fingerprint(0) != bigger.fingerprint(0)
        rep = ExperimentSpec(experiment="E", protocol="sst",
                             topology="ring", topo_params={"n": 6},
                             replicate=1)
        assert base.fingerprint(0) != rep.fingerprint(0)

    def test_dict_round_trip(self):
        spec = ExperimentSpec(experiment="E", protocol="guided-mst",
                              topology="random",
                              topo_params={"n": 8, "weighted": True},
                              init="random-tree", init_params={"seed": 1},
                              faults=3, stop="legal", max_rounds=40)
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.fingerprint(5) == spec.fingerprint(5)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec(experiment="E")  # neither protocol nor analysis
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec(experiment="E", protocol="sst",
                           analysis="fr-subclass")
        with pytest.raises(ValueError, match="stop"):
            ExperimentSpec(experiment="E", protocol="sst", topology="ring",
                           stop="whenever")

    def test_grid_order_and_count(self):
        combos = list(grid(a=[1, 2, 3], b=["x", "y"]))
        assert len(combos) == 6
        assert combos[0] == {"a": 1, "b": "x"}
        assert combos[-1] == {"a": 3, "b": "y"}

    def test_campaign_rejects_duplicate_runs(self):
        spec = ExperimentSpec(experiment="E", protocol="sst",
                              topology="ring", topo_params={"n": 6})
        with pytest.raises(ValueError, match="duplicate"):
            Campaign("dup", "dup", (spec, spec))

    def test_registered_campaigns_build(self):
        for name in CAMPAIGNS:
            campaign = get_campaign(name, root_seed=3)
            assert len(campaign) > 0
            assert campaign.root_seed == 3


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

class TestRunner:
    def test_records_are_pure_functions_of_spec_and_seed(self):
        spec = tiny_campaign().specs[0]
        a, b = run_spec(spec, 0), run_spec(spec, 0)
        assert canonical_record(a) == canonical_record(b)
        assert canonical_record(a) != canonical_record(run_spec(spec, 1))

    def test_skip_spec_is_recorded_not_executed(self):
        spec = next(s for s in tiny_campaign().specs if s.skip)
        record = run_spec(spec, 0)
        assert record["metrics"] == {"skipped": "documented exclusion"}

    def test_fault_spec_records_recovery(self):
        spec = next(s for s in tiny_campaign().specs if s.faults)
        record, context = execute(spec, 0)
        m = record["metrics"]
        assert m["silent"] and m["recovered_silent"]
        assert len(m["fault_victims"]) == spec.faults
        assert context["simulator"].is_silent()

    def test_record_is_json_plain(self):
        record = run_spec(tiny_campaign().specs[0], 0)
        assert json.loads(json.dumps(record)) == record


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------

class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        records = [run_spec(s, 0) for s in tiny_campaign().specs[:2]]
        for r in records:
            store.append(r)
        assert store.records() == records
        assert store.fingerprints() == {r["fingerprint"] for r in records}

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        record = run_spec(tiny_campaign().specs[0], 0)
        store.append(record)
        newer = dict(record, metrics={"moves": -1})
        store.append(newer)
        assert len(store) == 1
        assert store.by_fingerprint()[record["fingerprint"]] == newer

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        record = run_spec(tiny_campaign().specs[0], 0)
        store.append(record)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "dead, torn mid-wr')  # killed here
        assert store.records() == [record]

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(run_spec(tiny_campaign().specs[0], 0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"fingerprint": "x"}) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            store.records()

    def test_canonical_strips_timing(self, tmp_path):
        store = ResultStore(None)
        record = run_spec(tiny_campaign().specs[0], 0)
        store.append(record)
        canon = store.canonical_records()[record["fingerprint"]]
        assert "timing" not in canon and "metrics" in canon


# ----------------------------------------------------------------------
# executor: parallelism, resume, interruption
# ----------------------------------------------------------------------

class TestExecutor:
    def test_worker_count_is_invisible(self, tmp_path):
        campaign = tiny_campaign()
        s1 = ResultStore(tmp_path / "w1.jsonl")
        s2 = ResultStore(tmp_path / "w2.jsonl")
        run_campaign(campaign, store=s1, workers=1)
        run_campaign(campaign, store=s2, workers=3)
        assert s1.canonical_records() == s2.canonical_records()
        # even the line *order* matches: the store file is reproducible
        fps1 = [r["fingerprint"] for r in s1.records()]
        fps2 = [r["fingerprint"] for r in s2.records()]
        assert fps1 == fps2 == campaign.fingerprints()

    def test_resume_skips_completed_work(self, tmp_path, monkeypatch):
        campaign = tiny_campaign()
        store = ResultStore(tmp_path / "r.jsonl")
        executed = []
        real = runner.run_spec

        def counting(spec, root_seed, trace_dir=None):
            executed.append(spec.fingerprint(root_seed))
            return real(spec, root_seed, trace_dir=trace_dir)

        monkeypatch.setattr(runner, "run_spec", counting)
        run_campaign(campaign, store=store, max_runs=2)
        assert len(executed) == 2
        records = run_campaign(campaign, store=store)
        assert len(executed) == len(campaign)          # no duplicate work
        assert len(records) == len(campaign)
        assert len(set(executed)) == len(executed)
        # a third pass is a no-op
        run_campaign(campaign, store=store)
        assert len(executed) == len(campaign)

    def test_kill_mid_campaign_then_rerun(self, tmp_path):
        campaign = tiny_campaign()
        reference = ResultStore(tmp_path / "ref.jsonl")
        run_campaign(campaign, store=reference)

        # simulate a campaign killed mid-write: a prefix of completed
        # records plus one torn line
        path = tmp_path / "killed.jsonl"
        with open(tmp_path / "ref.jsonl", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:3]) + "\n")
            fh.write(lines[3][: len(lines[3]) // 2])  # torn tail

        store = ResultStore(path)
        records = run_campaign(campaign, store=store)
        assert len(records) == len(campaign)
        fps = [r["fingerprint"] for r in store.records()]
        assert len(fps) == len(set(fps))               # no duplicates
        # identical final report data, interruption or not
        assert store.canonical_records() == reference.canonical_records()

    def test_progress_callback(self):
        seen = []
        campaign = tiny_campaign()
        run_campaign(campaign,
                     progress=lambda done, total, rec:
                     seen.append((done, total, rec["experiment"])))
        assert len(seen) == len(campaign)
        assert seen[-1][0] == seen[-1][1] == len(campaign)


# ----------------------------------------------------------------------
# campaign content sanity (fast families only)
# ----------------------------------------------------------------------

class TestCampaigns:
    def test_smoke_campaign_is_multi_protocol(self):
        campaign = get_campaign("smoke")
        protocols = {s.protocol for s in campaign.specs}
        assert {"sst", "malleable-tree", "guided-bfs"} <= protocols
        records = run_campaign(campaign)
        executed = [r for r in records if "skipped" not in r["metrics"]]
        assert all(r["metrics"]["silent"] for r in executed)

    def test_schedulers_campaign_declares_exclusions(self):
        campaign = get_campaign("schedulers")
        skipped = [s for s in campaign.specs if s.skip]
        assert {(s.protocol, s.scheduler) for s in skipped} \
            == set(EXCLUDED_DAEMONS)


# ----------------------------------------------------------------------
# the paper's claims, checked by `campaign report` on the full grid
# ----------------------------------------------------------------------

CLAIMED = ("EXP-ENGINE", "EXP-SCHED", "EXP-SIL", "EXP-T3", "EXP-T1",
           "EXP-T2", "EXP-L51", "EXP-L41", "EXP-ABL", "EXP-F2", "EXP-P81")


@pytest.fixture(scope="module")
def full_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "full.jsonl"
    assert repro_main(["campaign", "run", "--campaign", "full",
                       "--workers", "2", "--store", str(path),
                       "--quiet"]) == 0
    return path


def _report(store, capsys):
    code = repro_main(["campaign", "report", "--campaign", "full",
                       "--store", str(store)])
    return code, capsys.readouterr().err


class TestClaims:
    def test_full_campaign_upholds_every_claim(self, full_store, capsys):
        code, err = _report(full_store, capsys)
        assert code == 0, err
        for experiment in CLAIMED:
            assert f"claim {experiment}: ok" in err

    def test_a_broken_record_fails_its_claim(self, full_store, tmp_path,
                                             capsys):
        lines = full_store.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["spec"].get("protocol") == "guided-mst" \
                    and record["experiment"] == "EXP-T1":
                record["metrics"]["silent"] = False
                lines[i] = json.dumps(record)
                break
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        code, err = _report(broken, capsys)
        assert code == 1
        assert "claim EXP-T1: FAILED: not silent on the MST" in err
        assert "claim EXP-T2: ok" in err

    def test_a_partial_store_is_not_checked(self, tmp_path, capsys):
        store = tmp_path / "partial.jsonl"
        assert repro_main(["campaign", "run", "--campaign", "full",
                           "--max-runs", "5", "--store", str(store),
                           "--quiet"]) == 0
        code, err = _report(store, capsys)
        assert code == 0
        assert "claim EXP-SCHED: not checked (5/" in err
        assert "FAILED" not in err


#: the EXP-CHURN tables ``campaign report --campaign churn-smoke`` prints
CHURN_SMOKE_REPORT = "\n".join([
    "== re-silence after topology events (mean/max per wave, aggregated across daemons) ==",
    "protocol   | kind       | waves | runs | events | rounds/ev | rounds max | moves/ev | moves max | interrupt | re-silent",
    "-----------+------------+-------+------+--------+-----------+------------+----------+-----------+-----------+----------",
    "adhoc-bfs  | crash-join |     2 |    2 |      4 |       2.5 |          5 |      6.2 |        12 |         1 | yes      ",
    "adhoc-bfs  | edge-flip  |     2 |    2 |      4 |       0.2 |          1 |      0.5 |         2 |         1 | yes      ",
    "guided-bfs | crash-join |     2 |    2 |      4 |       5.0 |          7 |     16.8 |        31 |         0 | yes      ",
    "guided-bfs | edge-flip  |     2 |    2 |      4 |       3.8 |         15 |     12.0 |        48 |         0 | yes      ",
    "sst        | crash-join |     2 |    2 |      4 |       2.0 |          4 |      6.2 |        12 |         1 | yes      ",
    "sst        | edge-flip  |     2 |    2 |      4 |       0.5 |          1 |      0.8 |         2 |         1 | yes      ",
    "sst        | mixed      |     2 |    1 |      2 |       2.0 |          3 |      8.0 |        15 |         0 | yes      ",
    "",
    "== verifier-rejection locality (near = within 2 hops of the event) ==",
    "protocol   | kind       | rejections | near | locality | hist dist:count  ",
    "-----------+------------+------------+------+----------+------------------",
    "adhoc-bfs  | crash-join |         34 |   31 |    0.912 | 0:6 1:13 2:12 3:3",
    "adhoc-bfs  | edge-flip  |          0 |    0 |        - | -                ",
    "guided-bfs | crash-join |         58 |   58 |    1.000 | 0:29 1:24 2:5    ",
    "guided-bfs | edge-flip  |        108 |  108 |    1.000 | 0:23 1:56 2:29   ",
    "sst        | crash-join |         32 |   32 |    1.000 | 0:11 1:15 2:6    ",
    "sst        | edge-flip  |          0 |    0 |        - | -                ",
    "sst        | mixed      |         13 |   13 |    1.000 | 0:4 1:5 2:4      ",
])


class TestChurnReport:
    """The churn campaigns' super-stabilization tables are the EXP-CHURN
    renderer of ``campaign report``, in every output format."""

    @pytest.fixture(scope="class")
    def churn_store(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("churn") / "churn.jsonl"
        assert repro_main(["campaign", "run", "--campaign", "churn-smoke",
                           "--store", str(path), "--quiet"]) == 0
        return path

    def _report(self, store, capsys, *extra):
        code = repro_main(["campaign", "report", "--campaign", "churn-smoke",
                           "--store", str(store), *extra])
        return code, capsys.readouterr()

    def test_ascii_tables(self, churn_store, capsys):
        code, out = self._report(churn_store, capsys)
        assert code == 0
        assert out.out.rstrip("\n").split("\n") == \
            CHURN_SMOKE_REPORT.split("\n")
        assert "claim" not in out.err  # EXP-CHURN states no claim

    def test_markdown_and_csv(self, churn_store, capsys):
        code, out = self._report(churn_store, capsys, "--format", "markdown")
        assert code == 0
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in out.out.splitlines() if line.startswith("|")]
        assert ["sst", "mixed", "2", "1", "2", "2.0", "3", "8.0", "15", "0",
                "yes"] in rows
        code, out = self._report(churn_store, capsys, "--format", "csv")
        assert code == 0
        assert "sst,mixed,2,1,2,2.0,3,8.0,15,0,yes" in out.out
        assert "sst,mixed,13,13,1.000,0:4 1:5 2:4" in out.out


# ----------------------------------------------------------------------
# the real CLI
# ----------------------------------------------------------------------

class TestCLI:
    def cli(self, *args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)

    def test_smoke_run_resume_status_report(self, tmp_path):
        run1 = self.cli("campaign", "run", "--smoke", "--workers", "4",
                        "--store", "s.jsonl", cwd=tmp_path)
        assert run1.returncode == 0, run1.stderr
        assert "12 executed, 0 cached" in run1.stdout

        run2 = self.cli("campaign", "run", "--smoke", "--store", "s.jsonl",
                        cwd=tmp_path)
        assert run2.returncode == 0, run2.stderr
        assert "0 executed, 12 cached" in run2.stdout

        status = self.cli("campaign", "status", "--smoke",
                          "--store", "s.jsonl", cwd=tmp_path)
        assert status.returncode == 0, status.stderr
        assert "complete" in status.stdout

        report = self.cli("campaign", "report", "--smoke",
                          "--store", "s.jsonl", cwd=tmp_path)
        assert report.returncode == 0, report.stderr
        assert "EXP-SMOKE" in report.stdout

        csv = self.cli("campaign", "report", "--smoke", "--store", "s.jsonl",
                       "--format", "csv", cwd=tmp_path)
        assert csv.returncode == 0 and "," in csv.stdout

    def test_list_names_every_campaign(self, tmp_path):
        out = self.cli("campaign", "list", cwd=tmp_path)
        assert out.returncode == 0
        for name in CAMPAIGNS:
            assert name in out.stdout
