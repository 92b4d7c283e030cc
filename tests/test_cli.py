import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from semsearch import cli
from semsearch.affinity import TableScorer
from semsearch.baselines import TableRoomScorer
from semsearch.cli import METHODS, main, run_batch, run_bench, sample_pairs

from conftest import FARM_SCENARIO, REPO_ROOT


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(autouse=True)
def no_ambient_credentials(monkeypatch):
    for name in ("SEMSEARCH_API_KEY", "OPENAI_API_KEY", "SEMSEARCH_BASE_URL",
                 "OPENAI_BASE_URL", "SEMSEARCH_MODEL"):
        monkeypatch.delenv(name, raising=False)


class TestScore:
    def test_table_scorer_prints_normalized_distribution(self, capsys):
        assert run_cli("score", "--scenario", str(FARM_SCENARIO)) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0] == "target: drill"
        # first-ranked label is one of the drill-affine tools
        first = lines[2].split()[0]
        assert first == "screwdriver"
        total = [l for l in lines if l.startswith("sum")][0].split()[1]
        assert math.isclose(float(total), 1.0, abs_tol=1e-9)

    def test_missing_api_key_with_llm_scorer(self, capsys):
        code = run_cli("score", "--scenario", str(FARM_SCENARIO), "--scorer", "llm")
        assert code != 0
        assert "API key" in capsys.readouterr().err

    def test_target_equal_to_seen_label(self, capsys):
        assert run_cli("score", "--scenario", str(FARM_SCENARIO),
                       "--target", "screwdriver") == 0
        out = capsys.readouterr().out
        assert "target: screwdriver" in out

    # score takes no planner flag, and no command takes --normalizer: legs are
    # always over the map's maximum pairwise distance.
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(["score"], "--lambda", "-5", id="--lambda--5"),
        pytest.param(["score"], "--normalizer", "none", id="--normalizer-none"),
        pytest.param(["plan"], "--normalizer", "none", id="plan--normalizer-none"),
        pytest.param(["run", "--method", "losae"], "--normalizer", "none",
                     id="run--normalizer-none"),
        pytest.param(["bench"], "--normalizer", "none", id="bench--normalizer-none"),
    ])
    def test_planner_flags_are_not_score_options(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--scenario", str(FARM_SCENARIO), flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_llm_scorer_against_stub_endpoint(self, monkeypatch, capsys):
        from stub_server import StubServer

        with StubServer() as server:
            monkeypatch.setenv("SEMSEARCH_BASE_URL", server.base_url)
            monkeypatch.setenv("SEMSEARCH_API_KEY", "test-key")
            assert run_cli("score", "--scenario", str(FARM_SCENARIO),
                           "--scorer", "llm") == 0
            assert len(server.requests) == 10  # one query per seen label
        out = capsys.readouterr().out
        # identical stub logprobs for every label normalize to uniform
        assert "0.100000" in out
        assert "model answers" in out

    def test_printout_is_pinned(self, monkeypatch, capsys, farm_cfg):
        from stub_server import StubServer

        digest = hashlib.sha256()
        assert run_cli("score", "--scenario", str(FARM_SCENARIO)) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
        # the dynamic stub derives each label's raw score from its prompt
        with StubServer(dynamic=True) as server:
            monkeypatch.setenv("SEMSEARCH_BASE_URL", server.base_url)
            monkeypatch.setenv("SEMSEARCH_API_KEY", "test-key")
            assert run_cli("score", "--scenario", str(FARM_SCENARIO), "--scorer", "llm") == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
        asked = [body["messages"][-1]["content"] for _, _, body in server.requests]
        assert asked == [f"I see the following: {label}. Where should I go to find drill?"
                         for label in farm_cfg.env.labels()]
        assert digest.hexdigest() == SCORE_DIGEST


class TestPlan:
    def test_farm_plan_prints_mode_and_cost(self, capsys):
        assert run_cli("plan", "--scenario", str(FARM_SCENARIO), "--start", "hv1") == 0
        out = capsys.readouterr().out
        assert "mode: dp" in out
        assert "total cost:" in out

    def test_single_scored_waypoint(self, tmp_path, capsys):
        doc = {
            "waypoints": [{"id": "w1", "x": 0.0, "y": 0.0}, {"id": "w2", "x": 1.0, "y": 0.0}],
            "edges": [{"a": "w1", "b": "w2"}],
            "objects": [{"instance_id": "obj-1", "label": "rake", "waypoint": "w2"}],
            "ground_truth": {"target_label": "drill", "host_object": "obj-1"},
            "scorer": {"kind": "table", "table": {"rake|drill": 0.5}},
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert run_cli("plan", "--scenario", str(path)) == 0
        out = capsys.readouterr().out
        assert out.count("\n   1 ") == 1
        assert "w2" in out

    def test_ten_scored_waypoints_on_a_line_sweep(self, tmp_path, capsys):
        # a line of ten uniform-score waypoints: the optimal order is the sweep
        n = 10
        doc = {
            "waypoints": [{"id": f"w{i:02d}", "x": float(i), "y": 0.0} for i in range(n + 1)],
            "edges": [{"a": f"w{i:02d}", "b": f"w{i + 1:02d}"} for i in range(n)],
            "objects": [{"instance_id": f"obj-{i:02d}", "label": f"tool {i}",
                         "waypoint": f"w{i:02d}"} for i in range(1, n + 1)],
            "ground_truth": {"target_label": "drill", "host_object": "obj-01"},
            "scorer": {"kind": "table", "table": {"default": 0.5}},
        }
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        assert run_cli("plan", "--scenario", str(path), "--start", "w00") == 0
        out = capsys.readouterr().out
        # uniform scores on a line: the nearest-first sweep is the optimum
        order = [line.split()[1] for line in out.splitlines()
                 if line.strip() and line.split()[0].isdigit()]
        assert order == [f"w{i:02d}" for i in range(1, n + 1)]

    def test_farm_printout_from_every_start_is_pinned(self, capsys, farm_doc):
        digest = hashlib.sha256()
        for waypoint in farm_doc["waypoints"]:
            assert run_cli("plan", "--scenario", str(FARM_SCENARIO),
                           "--start", waypoint["id"]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
        assert digest.hexdigest() == PLAN_DIGEST


class TestRun:
    def test_single_trial_row(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("run", "--scenario", str(FARM_SCENARIO), "--method", "losae",
                       "--trials", "1", "--seed", "3", "--out", str(out_dir)) == 0
        rows = read_csv(out_dir / "episodes.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "losae"
        assert rows[0]["error"] == ""

    def test_fifteen_trials_default(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run_cli("run", "--scenario", str(FARM_SCENARIO), "--method", "losae",
                       "--out", str(out_dir)) == 0
        summary = read_csv(out_dir / "summary.csv")
        assert summary[0]["episodes"] == "15"

    def test_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run_cli("run", "--scenario", str(FARM_SCENARIO), "--method", "losae",
                           "--trials", "6", "--seed", "11", "--out", str(out_dir)) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, flag", [("run", "--method"), ("bench", "--methods")])
    @pytest.mark.parametrize("trials", ["0", "-3", "two"])
    def test_trials_must_be_positive(self, tmp_path, capsys, command, flag, trials):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--scenario", str(FARM_SCENARIO), flag, "losae",
                    "--trials", trials, "--out", str(out_dir))
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_room_search_method(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run_cli("run", "--scenario", str(FARM_SCENARIO), "--method", "room_search",
                       "--trials", "4", "--out", str(out_dir)) == 0
        rows = read_csv(out_dir / "episodes.csv")
        assert all(r["error"] == "" for r in rows)


class TestRunBatch:
    def test_errored_trials_count_as_failed_attempts(self, farm_cfg, monkeypatch):
        pairs = sample_pairs(farm_cfg.env, 4, 3)
        pairs[1] = (pairs[1][0], "obj-missing")
        pairs[2] = (pairs[2][0], "obj-missing")
        monkeypatch.setattr(cli, "sample_pairs", lambda env, trials, seed: pairs)
        report = run_batch(farm_cfg, "losae", 4, 3,
                           affinity_scorer=TableScorer(farm_cfg.scorer.table))
        assert [row.trial for row in report.rows] == [0, 1, 2, 3]
        errors = [row for row in report.rows if row.error]
        assert [row.trial for row in errors] == [1, 2]
        assert all(row.outcome == "error" and row.spl_term == 0.0 and row.pe is None
                   for row in errors)
        assert all("host object 'obj-missing'" in row.error for row in errors)
        assert report.episodes == 4
        found = sum(row.outcome == "found" for row in report.rows)
        assert found >= 1
        assert report.sr == found / 4
        assert report.spl == math.fsum(row.spl_term for row in report.rows) / 4
        pes = [row.pe for row in report.rows if row.pe is not None]
        assert report.pe_excluded == 4 - len(pes)
        assert report.pe_mean == math.fsum(pes) / len(pes)

    @pytest.mark.parametrize("run, methods, trials", [
        (run_bench, list(METHODS), 0),
        (run_batch, "losae", -3),
    ], ids=["run_bench", "run_batch"])
    def test_trials_must_be_positive_before_scoring(self, farm_cfg, run, methods, trials):
        calls = []

        class Recording(TableScorer):
            def score(self, *args):
                calls.append(args)
                return super().score(*args)

        class RecordingRooms(TableRoomScorer):
            def score_rooms(self, *args):
                calls.append(args)
                return super().score_rooms(*args)

        with pytest.raises(ValueError, match=f"got {trials}"):
            run(farm_cfg, methods, trials, 3, affinity_scorer=Recording(farm_cfg.scorer.table),
                room_scorer=RecordingRooms(farm_cfg.room_scores))
        assert calls == []


class TestModuleEntry:
    def test_python_m_semsearch_help(self):
        proc = subprocess.run([sys.executable, "-m", "semsearch", "--help"],
                              cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "usage: semsearch" in proc.stdout


class TestBench:
    def test_paired_sampling_across_methods(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("bench", "--scenario", str(FARM_SCENARIO), "--trials", "5",
                       "--seed", "7", "--out", str(out_dir)) == 0
        rows = read_csv(out_dir / "episodes.csv")
        methods = sorted({r["method"] for r in rows})
        assert methods == ["hottest_object", "hottest_waypoint", "losae", "room_search"]
        by_method = {m: {r["trial"]: (r["start"], r["host_object"])
                         for r in rows if r["method"] == m} for m in methods}
        for m in methods[1:]:
            assert by_method[m] == by_method[methods[0]]
        out = capsys.readouterr().out
        assert "SR" in out and "PE_mean" in out

    def test_bench_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run_cli("bench", "--scenario", str(FARM_SCENARIO), "--trials", "5",
                           "--seed", "7", "--out", str(out_dir)) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1]

    def test_unknown_method_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("bench", "--scenario", str(FARM_SCENARIO),
                       "--methods", "losae", "teleport", "--out", str(out_dir)) == 2
        assert "teleport" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_repeated_method_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("bench", "--scenario", str(FARM_SCENARIO), "--methods", "losae",
                       "room_search", "losae", "--out", str(out_dir)) == 2
        assert "method 'losae' is listed more than once" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_run_is_bench_over_one_method(self, tmp_path, method):
        outs = []
        for command, flag in (("run", "--method"), ("bench", "--methods")):
            out_dir = tmp_path / command
            assert run_cli(command, "--scenario", str(FARM_SCENARIO), flag, method,
                           "--trials", "5", "--seed", "7", "--out", str(out_dir)) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        assert len(outs[0]) == 4
        assert outs[0] == outs[1]

    def test_llm_scorers_share_one_gateway(self, tmp_path, monkeypatch, farm_cfg, farm_doc):
        from stub_server import StubServer, ok_completion

        built = []

        class Recorded(cli.LLMGateway):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "LLMGateway", Recorded)
        doc = {key: value for key, value in farm_doc.items() if key != "room_scores"}
        scenario = tmp_path / "no-room-table.json"
        scenario.write_text(json.dumps(doc))
        rooms = "\n".join(f"{room['name']}: 50" for room in farm_doc["rooms"])
        script = [("json", ok_completion())] * len(farm_cfg.env.labels())
        script.append(("json", ok_completion(answer=rooms)))
        with StubServer(script) as server:
            monkeypatch.setenv("SEMSEARCH_BASE_URL", server.base_url)
            monkeypatch.setenv("SEMSEARCH_API_KEY", "test-key")
            assert run_cli("bench", "--scenario", str(scenario), "--scorer", "llm",
                           "--methods", "losae", "room_search", "--cache",
                           str(tmp_path / "cache.jsonl"), "--trials", "2",
                           "--out", str(tmp_path / "llm")) == 0
            assert len(server.requests) == len(script)
        assert len(built) == 1
        assert run_cli("bench", "--scenario", str(FARM_SCENARIO), "--trials", "2",
                       "--out", str(tmp_path / "table")) == 0
        assert len(built) == 1

    def test_single_method(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run_cli("bench", "--scenario", str(FARM_SCENARIO), "--methods", "losae",
                       "--trials", "3", "--out", str(out_dir)) == 0
        summary = read_csv(out_dir / "summary.csv")
        assert [r["method"] for r in summary] == ["losae"]


# SHA-256 of `score` stdout with the table scorer, then with `--scorer llm`
# against the dynamic stub; any change to a probability, a raw score, the row
# order or the model answers shows here.
SCORE_DIGEST = "fe3bd8bb327c6a0c8ba5db67d12c6d5595968a162507b907510b523ee6bd440c"

# SHA-256 of `plan --start W` stdout for every farm waypoint in document order;
# any change to a column, the leg(m) meters included, shows here.
PLAN_DIGEST = "343ad92c029971d5faa27b5611f82c7faeafa0088e169798b58b0a44c9a5f0f5"

# SHA-256 of each CSV from `bench --trials 200 --seed 5`; any change to a
# sampled value, a float's formatting or a row's order shows here.
FARM_DIGESTS = {
    "episodes.csv": "4ffe16c1af2fad59523194bd677ba9e324359b7635d631eb7e4c0cc20a9fbf34",
    "summary.csv": "4567029e206b7ab56e81bcec6c4e05657ffd528c3518bc5b6cf95ca6c59dd15c",
    "steps.csv": "d829c035ebb8feb8de137ada4571f2f87d3a820732e87c6ef75a8170b8dbe976",
    "long.csv": "b472e61ecfe17aa38f2abe784ceb01b22badd462b4bdc2388aaa6bfb77cad3fd",
}
NOISY_DIGESTS = {  # the farm with perception TPR 0.8 / FPR 0.05
    "episodes.csv": "142c7ce3485a471fb6ca0dfee5dd1341c8b19ea9c16caf7e9ce9880bb79f19b8",
    "summary.csv": "6c5b7b4ea04d6a1cf954d9bf956a5d368873d53293f3d6b2024c6af4ba06477c",
    "steps.csv": "0748f865cb5d62a67bbcf910e9cddc6e3ca5157a5f202f15dee7b98d87edfa4c",
    "long.csv": "44f3c890af2001f53dc246e42d4843d2d943e0ac6b79449ea9e19249b9e75873",
}


class TestPinnedOutput:
    def bench_digests(self, scenario, out_dir):
        assert run_cli("bench", "--scenario", str(scenario), "--trials", "200",
                       "--seed", "5", "--out", str(out_dir)) == 0
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in FARM_DIGESTS}

    def test_farm_bench_bytes(self, tmp_path):
        assert self.bench_digests(FARM_SCENARIO, tmp_path / "out") == FARM_DIGESTS

    def test_noisy_farm_bench_bytes(self, tmp_path, farm_doc):
        doc = {**farm_doc, "perception": {"true_positive_rate": 0.8,
                                          "false_positive_rate": 0.05}}
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps(doc))
        assert self.bench_digests(scenario, tmp_path / "out") == NOISY_DIGESTS
