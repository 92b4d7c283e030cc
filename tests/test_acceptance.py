"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import csv
import functools
import json
import math
import random
import time

import pytest

import semsearch.llm_gateway as gw
from semsearch.affinity import TableScorer, aggregate_logprobs, score_distribution
from semsearch.baselines import TableEmbedder, TableRoomScorer
from semsearch.cli import main as cli_main
from semsearch.cli import run_batch, run_bench
from semsearch.env_graph import GroundTruth, load_scenario_path, parse_scenario
from semsearch.llm_gateway import (
    CompletionRequest,
    GatewayConfig,
    LLMGateway,
    LogprobsUnsupportedError,
    TokenLogprobs,
)
from semsearch.metrics import path_efficiency, spl, spl_term, success_rate
from semsearch.planner import (
    PlannerConfig,
    WaypointScores,
    path_cost,
    plan_optimal,
    waypoint_scores,
)
from semsearch.search_sim import EpisodeResult, Outcome, PerceptionModel, SimulationParams, run_episode

from conftest import FARM_SCENARIO, make_env, random_connected_graph
from oracles import best_permutation
from stub_server import StubServer, no_logprobs_completion, ok_completion


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")
        return wrapper
    return decorate


@criterion(1, "token logprob aggregation")
def test_criterion_01_aggregation():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(1000):
        values = [rng.uniform(-10.0, 0.0) for _ in range(rng.randint(1, 64))]
        tokens = TokenLogprobs(tuple((f"t{i}", v) for i, v in enumerate(values)))
        expected = math.exp(math.fsum(values) / len(values))
        assert abs(aggregate_logprobs(tokens) - expected) < 1e-12
    for _ in range(1000):
        values = [rng.uniform(-10.0, -0.01) for _ in range(rng.randint(1, 32))]
        index = rng.randrange(len(values))
        raised = list(values)
        raised[index] = values[index] + rng.uniform(1e-6, -values[index])
        base = aggregate_logprobs(TokenLogprobs(tuple((f"t{i}", v) for i, v in enumerate(values))))
        bumped = aggregate_logprobs(TokenLogprobs(tuple((f"t{i}", v) for i, v in enumerate(raised))))
        assert bumped > base
    assert time.perf_counter() - started < 1.0


@criterion(2, "distribution normalization")
def test_criterion_02_normalization():
    rng = random.Random(202)
    distributions = []
    for _ in range(200):
        labels = [f"item {i}" for i in range(rng.randint(1, 12))]
        table = {f"{label}|target": rng.uniform(0.0, 1.0) for label in labels}
        table["default"] = 0.0
        with pytest.warns(RuntimeWarning) if all(v < 1e-12 for v in table.values()) else _nullcontext():
            distributions.append(score_distribution(TableScorer(table), labels, "target"))
    farm = load_scenario_path(FARM_SCENARIO)
    distributions.append(score_distribution(TableScorer(farm.scorer.table),
                                            farm.env.labels(), "drill"))
    for dist in distributions:
        assert abs(math.fsum(dist.entries.values()) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in dist.entries.values())


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


@criterion(3, "planner optimality oracle")
def test_criterion_03_planner_oracle():
    rng = random.Random(303)
    started = time.perf_counter()
    for _ in range(200):
        waypoints, edges = random_connected_graph(rng, max_nodes=12)
        env = make_env(waypoints, edges)
        ids = env.waypoint_ids()
        k = rng.randint(2, min(7, len(ids)))
        chosen = rng.sample(ids, k)
        raws = [rng.uniform(0.05, 1.0) for _ in chosen]
        total = sum(raws)
        scores = WaypointScores({w: r / total for w, r in zip(chosen, raws)}, 1.0)
        start = rng.choice(ids)
        config = PlannerConfig()
        norm = env.max_pairwise_distance or 1.0
        oracle_cost, oracle_seq = best_permutation(env.distance, start, chosen,
                                                   scores.scores, config.score_weight, norm)
        plan = plan_optimal(env, start, scores, config)
        assert plan.cost == oracle_cost
        assert plan.sequence == oracle_seq
    assert time.perf_counter() - started < 30.0


@criterion(4, "plan cost hand cases")
def test_criterion_04_cost_hand_cases():
    env = make_env(
        [("s", 0, 0), ("v1", 1, 0), ("v2", 1, 1)],
        [("s", "v1", 1.0), ("s", "v2", 1.0), ("v1", "v2", 0.5)],
    )
    assert env.max_pairwise_distance == 1.0  # so normalized legs equal the meters below
    config = PlannerConfig()
    scores = WaypointScores({"v1": 0.6, "v2": 0.4}, 1.0)
    assert path_cost(["v1", "v2"], "s", scores, env, config) == 1.5 - (0.6 / 1 + 0.4 / 2)
    assert path_cost(["v1", "v2"], "s", scores, env, config) == pytest.approx(0.7, abs=1e-12)
    assert path_cost(["v2", "v1"], "s", scores, env, config) == 1.5 - (0.4 / 1 + 0.6 / 2)
    assert path_cost(["v2", "v1"], "s", scores, env, config) == pytest.approx(0.8, abs=1e-12)
    # fully symmetric pair: lexicographically smaller waypoint goes first
    tie_env = make_env(
        [("s", 0, 0), ("a", 1, 0), ("b", 0, 1)],
        [("s", "a", 1.0), ("s", "b", 1.0), ("a", "b", 1.0)],
    )
    plan = plan_optimal(tie_env, "s", WaypointScores({"a": 0.5, "b": 0.5}, 1.0), config)
    assert plan.sequence == ("a", "b")


@criterion(5, "metric formulas")
def test_criterion_05_metric_hand_cases():
    def episode(outcome, traversed, ideal):
        return EpisodeResult(outcome=outcome, traversed_length=traversed,
                             ideal_length=ideal, steps=tuple())

    assert spl([episode(Outcome.FOUND, 10.0, 10.0)]) == 1.0
    assert spl([episode(Outcome.FOUND, 10.0, 10.0),
                episode(Outcome.LOST, 9.0, 3.0)]) == 0.5
    assert spl([episode(Outcome.FOUND, 12.5, 10.0)]) == pytest.approx(0.8, abs=1e-12)
    assert path_efficiency(episode(Outcome.FOUND, 10.0, 10.0)) == 1.0
    assert path_efficiency(episode(Outcome.FOUND, 10.0, 8.4)) == pytest.approx(0.84, abs=1e-12)
    assert path_efficiency(episode(Outcome.EXHAUSTED, 25.0, 5.0)) == pytest.approx(0.2, abs=1e-12)
    assert success_rate([episode(Outcome.FOUND, 1, 1)] * 12
                        + [episode(Outcome.LOST, 1, 1)] * 3) == 0.80

    rng = random.Random(505)
    for _ in range(1000):
        batch = [episode(rng.choice(list(Outcome)), rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
                 for _ in range(rng.randint(1, 25))]
        assert spl(batch) <= success_rate(batch) + 1e-12


@criterion(6, "lost termination rule")
def test_criterion_06_termination():
    doc = {
        "waypoints": [{"id": "s", "x": 0.0, "y": 0.0}] + [
            {"id": f"w{i}", "x": float(i), "y": 0.0} for i in range(1, 6)],
        "edges": [{"a": "s", "b": "w1"}] + [
            {"a": f"w{i}", "b": f"w{i + 1}"} for i in range(1, 5)],
        "objects": [
            {"instance_id": "obj-a", "label": "able", "waypoint": "w1"},
            {"instance_id": "obj-b", "label": "baker", "waypoint": "w2"},
            {"instance_id": "obj-c", "label": "cast", "waypoint": "w3"},
            {"instance_id": "obj-d", "label": "dove", "waypoint": "w4"},
            {"instance_id": "obj-e", "label": "echo", "waypoint": "w5"},
        ],
        "ground_truth": {"target_label": "drill", "host_object": "obj-e"},
        "scorer": {"kind": "table", "table": {
            "able|drill": 0.5, "baker|drill": 0.3, "cast|drill": 0.19,
            "dove|drill": 0.01, "echo|drill": 0.0,
        }},
    }
    cfg = parse_scenario(json.dumps(doc))
    dist = score_distribution(TableScorer(cfg.scorer.table), cfg.env.labels(), "drill")
    scores = waypoint_scores(cfg.env, dist)
    assert "w5" not in scores.positive()  # the host waypoint carries no probability
    plan = plan_optimal(cfg.env, "s", scores)
    result = run_episode(cfg.env, plan, cfg.truth, SimulationParams(seed=1))
    assert result.outcome is Outcome.LOST
    consumed = result.steps[-1].cumulative
    assert consumed >= 0.95 * plan.total_mass
    # the lost check fires after the triggering waypoint; nothing beyond it is inspected
    trigger_index = len(result.steps) - 1
    assert [s.waypoint for s in result.steps] == list(plan.sequence[:trigger_index + 1])
    assert result.steps[-2].cumulative < 0.95 * plan.total_mass
    assert all(s.waypoint != "w5" for s in result.steps)


@criterion(7, "offline benchmark ordering")
def test_criterion_07_bench_ordering():
    cfg = load_scenario_path(FARM_SCENARIO)
    started = time.perf_counter()
    reports = run_bench(
        cfg, ["losae", "room_search", "hottest_object", "hottest_waypoint"],
        trials=15, seed=cfg.params.seed,
        affinity_scorer=TableScorer(cfg.scorer.table),
        room_scorer=TableRoomScorer(cfg.room_scores),
        embedder=TableEmbedder(cfg.embeddings),
    )
    elapsed = time.perf_counter() - started
    pe = {r.method: r.pe_mean for r in reports}
    for r in reports:
        assert r.episodes == 15
        assert not any(row.error for row in r.rows)
    assert pe["losae"] > pe["room_search"]
    assert pe["room_search"] > pe["hottest_object"]
    assert pe["room_search"] > pe["hottest_waypoint"]
    assert pe["losae"] >= 0.70
    assert pe["hottest_object"] <= 0.50
    assert pe["hottest_waypoint"] <= 0.50
    assert elapsed < 10.0


@criterion(8, "noisy perception sanity corridor")
def test_criterion_08_noise_corridor():
    cfg = load_scenario_path(FARM_SCENARIO)
    params = SimulationParams(
        perception=PerceptionModel(true_positive_rate=0.8, false_positive_rate=0.05),
        seed=cfg.params.seed,
    )
    report = run_batch(cfg, "losae", 200, cfg.params.seed,
                       affinity_scorer=TableScorer(cfg.scorer.table), params=params)
    assert report.episodes == 200
    assert 0.6 <= report.sr <= 0.95
    assert report.spl <= report.sr


@criterion(9, "benchmark determinism")
def test_criterion_09_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(["bench", "--scenario", str(FARM_SCENARIO), "--trials", "8",
                         "--seed", "7", "--out", str(out_dir)])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"episodes.csv", "summary.csv", "steps.csv", "long.csv"}


@criterion(10, "gateway contract against a stub endpoint")
def test_criterion_10_gateway(monkeypatch):
    delays = []
    monkeypatch.setattr(gw.time, "sleep", delays.append)
    config = dict(api_key="test-key", timeout_s=5.0, backoff_base_s=0.01,
                  requests_per_second=10_000.0, burst=1000)
    request = CompletionRequest(system_text="sys", user_text="user", model="stub-model")

    with StubServer() as server:
        gateway = LLMGateway(GatewayConfig(base_url=server.base_url, **config))
        result = gateway.complete(request)
        assert len(result.token_logprobs) >= 1
        assert all(lp <= 0 for _, lp in result.token_logprobs.tokens)

    with StubServer([("json", no_logprobs_completion())]) as server:
        gateway = LLMGateway(GatewayConfig(base_url=server.base_url, **config))
        with pytest.raises(LogprobsUnsupportedError):
            gateway.complete(request)

    with StubServer([("status", 429), ("status", 429), ("json", ok_completion())]) as server:
        gateway = LLMGateway(GatewayConfig(base_url=server.base_url, **config))
        result = gateway.complete(request)
        assert result.answer_text
        assert len(server.requests) == 3
    assert len(delays) == 2
    assert delays == sorted(delays)


@criterion(11, "episode throughput")
def test_criterion_11_throughput():
    rng = random.Random(1111)
    ids = [f"w{i:02d}" for i in range(40)]
    waypoints = [{"id": wid, "x": (i % 8) * 6.0 + rng.uniform(-1, 1),
                  "y": (i // 8) * 6.0 + rng.uniform(-1, 1)} for i, wid in enumerate(ids)]
    edges, pairs = [], set()
    for i in range(1, 40):
        j = rng.randrange(i)
        edges.append({"a": ids[j], "b": ids[i]})
        pairs.add((min(i, j), max(i, j)))
    while len(edges) < 60:
        i, j = rng.sample(range(40), 2)
        if (min(i, j), max(i, j)) not in pairs:
            pairs.add((min(i, j), max(i, j)))
            edges.append({"a": ids[i], "b": ids[j]})
    # 15 objects spread over 12 host waypoints (stations share waypoints)
    hosts = rng.sample(ids, 12)
    labels = [f"item {chr(97 + i)}" for i in range(15)]
    objects = [{"instance_id": f"obj-{i:02d}", "label": labels[i],
                "waypoint": hosts[i % len(hosts)]} for i in range(15)]
    table = {f"{label}|gadget": round(rng.uniform(0.1, 0.9), 3) for label in labels}
    doc = {"waypoints": waypoints, "edges": edges, "objects": objects,
           "ground_truth": {"target_label": "gadget", "host_object": "obj-00"},
           "scorer": {"kind": "table", "table": table}, "seed": 13}
    cfg = parse_scenario(json.dumps(doc))

    started = time.perf_counter()
    report = run_batch(cfg, "losae", 100, 13, affinity_scorer=TableScorer(table))
    elapsed = time.perf_counter() - started
    assert report.episodes == 100
    assert not any(row.error for row in report.rows)
    assert elapsed < 10.0
