import gc
import itertools
import math
import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from semsearch import cli, planner
from semsearch.affinity import AffinityDistribution, ScorerError, TableScorer
from semsearch.baselines import TableEmbedder, TableRoomScorer
from semsearch.planner import (
    MAX_SCORED_WAYPOINTS,
    PlannerConfig,
    PlannerError,
    WaypointScores,
    _cost_to_go,
    path_cost,
    plan_optimal,
    waypoint_scores,
)

from conftest import FARM_SCENARIO, make_env, random_connected_graph
from oracles import best_permutation, eq3_cost

def symmetric_pair_env():
    # start s, two targets one unit away from s and half a unit apart
    return make_env(
        [("s", 0, 0), ("v1", 1, 0), ("v2", 1, 1)],
        [("s", "v1", 1.0), ("s", "v2", 1.0), ("v1", "v2", 0.5)],
    )


class TestWaypointScores:
    def test_sums_instance_probabilities(self):
        env = make_env(
            [("w1", 0, 0), ("w2", 1, 0)],
            [("w1", "w2", 1.0)],
            [("obj-a", "rake", "w1"), ("obj-b", "hoe", "w1"), ("obj-c", "tarp", "w2")],
        )
        dist = AffinityDistribution("t", {"rake": 0.1, "hoe": 0.3, "tarp": 0.6},
                                    {"rake": 0.1, "hoe": 0.3, "tarp": 0.6})
        scores = waypoint_scores(env, dist)
        assert scores.scores["w1"] == pytest.approx(0.4, abs=1e-12)
        assert scores.scores["w2"] == pytest.approx(0.6, abs=1e-12)

    def test_object_free_waypoint_excluded(self, line_env):
        dist = AffinityDistribution("t", {"hammer": 0.5, "drill bit": 0.5},
                                    {"hammer": 0.5, "drill bit": 0.5})
        scores = waypoint_scores(line_env, dist)
        assert "w2" not in scores.scores
        assert set(scores.scores) == {"w1", "w3"}

    def test_farm_scores_sum_to_one(self, farm_cfg):
        from semsearch.affinity import TableScorer, score_distribution
        dist = score_distribution(TableScorer(farm_cfg.scorer.table),
                                  farm_cfg.env.labels(), "drill")
        scores = waypoint_scores(farm_cfg.env, dist)
        assert math.fsum(scores.scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert scores.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_missing_label_is_an_error(self, line_env):
        dist = AffinityDistribution("t", {"hammer": 1.0}, {"hammer": 1.0})
        with pytest.raises(ScorerError, match="drill bit"):
            waypoint_scores(line_env, dist)


class TestPathCost:
    def test_hand_case(self):
        env = symmetric_pair_env()
        scores = WaypointScores({"v1": 0.6, "v2": 0.4}, 1.0)
        cost = path_cost(["v1", "v2"], "s", scores, env)
        assert cost == 1.5 - (0.6 / 1 + 0.4 / 2)
        assert cost == pytest.approx(0.7, abs=1e-12)

    def test_hand_case_swapped_order_is_worse(self):
        env = symmetric_pair_env()
        scores = WaypointScores({"v1": 0.6, "v2": 0.4}, 1.0)
        swapped = path_cost(["v2", "v1"], "s", scores, env)
        assert swapped == 1.5 - (0.4 / 1 + 0.6 / 2)
        assert swapped == pytest.approx(0.8, abs=1e-12)
        assert swapped > path_cost(["v1", "v2"], "s", scores, env)

    def test_empty_sequence(self):
        env = symmetric_pair_env()
        assert path_cost([], "s", WaypointScores({"v1": 1.0}, 1.0), env) == 0.0

    def test_unknown_waypoint(self):
        env = symmetric_pair_env()
        with pytest.raises(Exception, match="v9"):
            path_cost(["v9"], "s", WaypointScores({"v9": 1.0}, 1.0), env)

    def test_unscored_waypoint(self):
        env = symmetric_pair_env()
        with pytest.raises(PlannerError, match="v2"):
            path_cost(["v2"], "s", WaypointScores({"v1": 1.0}, 1.0), env)

    def test_discount_moves_higher_scores_earlier(self):
        # equidistant triangle: distances cancel, only the 1/rank discount differs
        env = make_env(
            [("s", 0, 0), ("a", 1, 0), ("b", 0, 1)],
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "b", 1.0)],
        )
        scores = WaypointScores({"a": 0.9, "b": 0.1}, 1.0)
        better = path_cost(["a", "b"], "s", scores, env)
        worse = path_cost(["b", "a"], "s", scores, env)
        assert better < worse


def assert_matches_oracle(env, start, scores, config):
    oracle_cost, oracle_seq = best_permutation(env.distance, start, scores.positive(),
                                               scores.scores, config.score_weight,
                                               env.max_pairwise_distance)
    plan = plan_optimal(env, start, scores, config)
    assert plan.sequence == oracle_seq
    assert plan.cost == oracle_cost


class TestPlanExhaustive:
    """plan_optimal against exhaustive enumeration of every visiting order."""

    def test_single_waypoint(self):
        env = symmetric_pair_env()
        plan = plan_optimal(env, "s", WaypointScores({"v1": 1.0}, 1.0))
        assert plan.sequence == ("v1",)
        assert plan.mode == "dp"

    def test_equal_scores_nearer_first(self):
        env = make_env(
            [("s", 0, 0), ("near", 1, 0), ("far", 5, 0)],
            [("s", "near", 1.0), ("near", "far", 4.0)],
        )
        scores = WaypointScores({"near": 0.5, "far": 0.5}, 1.0)
        oracle_cost, oracle_seq = best_permutation(env.distance, "s", ["near", "far"],
                                                   scores.scores, 1.0,
                                                   env.max_pairwise_distance)
        plan = plan_optimal(env, "s", scores)
        assert plan.sequence == oracle_seq == ("near", "far")
        assert plan.cost == oracle_cost

    def test_symmetric_tie_breaks_lexicographically(self):
        env = make_env(
            [("s", 0, 0), ("a", 1, 0), ("b", 0, 1)],
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "b", 1.0)],
        )
        plan = plan_optimal(env, "s", WaypointScores({"a": 0.5, "b": 0.5}, 1.0))
        assert plan.sequence == ("a", "b")

    def test_beats_every_permutation(self):
        rng = random.Random(11)
        for _ in range(10):
            env, start, scores, config = _random_instance(rng, max_scored=6)
            plan = plan_optimal(env, start, scores, config)
            norm = env.max_pairwise_distance
            for perm in itertools.permutations(scores.positive()):
                assert plan.cost <= eq3_cost(env.distance, start, perm, scores.scores,
                                             config.score_weight, norm) + 1e-12

    def test_tie_heavy_grids_match_oracle(self):
        # Integer grid distances and equal scores make many orders tie exactly
        # in real arithmetic while their partial sums round differently. The
        # fixed cases are ones where keeping only the rounded-cheaper partial
        # order per DP state returns a lexicographically larger sequence.
        configs = [PlannerConfig(), PlannerConfig(score_weight=0.5)]
        cases = [((4, 4), "g20", ["g00", "g33", "g01", "g32", "g02", "g11"]),
                 ((3, 4), "g21", ["g21", "g03", "g10", "g02", "g22", "g12", "g01"]),
                 ((4, 4), "g21", ["g23", "g21", "g00", "g12", "g22", "g32"])]
        rng = random.Random(1200)
        for _ in range(40):
            size = (rng.randint(2, 4), rng.randint(2, 4))
            ids = _grid_env(*size).waypoint_ids()
            cases.append((size, rng.choice(ids), rng.sample(ids, rng.randint(2, min(7, len(ids))))))
        for size, start, chosen in cases:
            env = _grid_env(*size)
            scores = WaypointScores({w: 1.0 / len(chosen) for w in chosen}, 1.0)
            for config in configs:
                assert_matches_oracle(env, start, scores, config)


def _grid_env(width, height):
    ids = {(x, y): f"g{x}{y}" for x in range(width) for y in range(height)}
    edges = [(ids[x, y], ids[x + dx, y + dy], 1.0)
             for (x, y) in ids for dx, dy in ((1, 0), (0, 1))
             if (x + dx, y + dy) in ids]
    return make_env([(wid, x, y) for (x, y), wid in ids.items()], edges)


def _random_instance(rng, max_scored=7, max_nodes=12):
    waypoints, edges = random_connected_graph(rng, max_nodes=max_nodes)
    env = make_env(waypoints, edges)
    ids = env.waypoint_ids()
    k = rng.randint(2, min(max_scored, len(ids)))
    chosen = rng.sample(ids, k)
    raws = [rng.uniform(0.05, 1.0) for _ in chosen]
    total = sum(raws)
    scores = WaypointScores({w: r / total for w, r in zip(chosen, raws)}, 1.0)
    start = rng.choice(ids)
    config = PlannerConfig(score_weight=rng.choice([0.5, 1.0, 2.0]))
    return env, start, scores, config


class TestPlanBounded:
    """plan_optimal up to its size cap."""

    def test_matches_exhaustive_on_random_instances(self):
        rng = random.Random(20240818)
        for _ in range(60):
            assert_matches_oracle(*_random_instance(rng))

    def test_matches_exhaustive_at_eight_scored(self):
        rng = random.Random(8)
        env, start, scores, config = _random_instance(rng, max_scored=8, max_nodes=12)
        while len(scores.positive()) < 8:
            env, start, scores, config = _random_instance(rng, max_scored=8, max_nodes=12)
        assert_matches_oracle(env, start, scores, config)

    def test_single_waypoint(self):
        env = symmetric_pair_env()
        plan = plan_optimal(env, "s", WaypointScores({"v2": 1.0}, 1.0))
        assert plan.sequence == ("v2",)
        assert plan.cost == 1.0 / env.max_pairwise_distance - 1.0

    def test_fifteen_scored_waypoints_complete_quickly(self):
        rng = random.Random(1500)
        waypoints, edges = random_connected_graph(rng, max_nodes=20, extra_edges=8)
        env = make_env(waypoints, edges)
        while len(env.waypoint_ids()) < 16:
            waypoints, edges = random_connected_graph(rng, max_nodes=20, extra_edges=8)
            env = make_env(waypoints, edges)
        ids = rng.sample(env.waypoint_ids(), 15)
        raws = [rng.uniform(0.05, 1.0) for _ in ids]
        total = sum(raws)
        scores = WaypointScores({w: r / total for w, r in zip(ids, raws)}, 1.0)
        started = time.perf_counter()
        plan = plan_optimal(env, env.waypoint_ids()[0], scores)
        elapsed = time.perf_counter() - started
        assert sorted(plan.sequence) == sorted(ids)
        assert elapsed < 5.0

    def test_equal_scores_on_a_star_complete_quickly(self):
        # From the hub every visiting order ties exactly in floats, so only
        # the walk's dominance rule keeps it from walking all of them.
        ids = [f"leaf{i:02d}" for i in range(10)]
        env = make_env([("hub", 0, 0)] + [(w, i, 1) for i, w in enumerate(ids)],
                       [("hub", w, 1.0) for w in ids])
        assert_matches_oracle(env, "hub", WaypointScores({w: 1 / 6 for w in ids[:6]}, 1.0),
                              PlannerConfig())
        started = time.perf_counter()
        plan = plan_optimal(env, "hub", WaypointScores({w: 1 / 10 for w in ids}, 1.0))
        elapsed = time.perf_counter() - started
        assert plan.sequence == tuple(ids)
        assert elapsed < 2.0

    def test_starts_over_one_scored_set_share_a_table(self):
        env, _, scores, config = _random_instance(random.Random(5))
        _cost_to_go.cache_clear()
        for start in env.waypoint_ids():
            assert_matches_oracle(env, start, scores, config)
        info = _cost_to_go.cache_info()
        assert (info.misses, info.hits) == (1, len(env.waypoint_ids()) - 1)

    def test_over_cap_is_an_error(self):
        n = MAX_SCORED_WAYPOINTS + 1
        env = make_env([(f"w{i:02d}", i, 0) for i in range(n + 1)],
                       [(f"w{i:02d}", f"w{i + 1:02d}", 1.0) for i in range(n)])
        scores = WaypointScores({f"w{i:02d}": 1.0 / n for i in range(1, n + 1)}, 1.0)
        with pytest.raises(PlannerError, match=f"{n} scored waypoints .* cap of "
                                               f"{MAX_SCORED_WAYPOINTS}"):
            plan_optimal(env, "w00", scores)


class TestKeptTables:
    """_cost_to_go keeps built tables across calls within TABLE_STATE_BUDGET."""

    def line_env_and_scores(self):
        env = make_env([("s", 0, 0), ("a", 1, 0), ("b", 2, 0), ("c", 3, 0)],
                       [("s", "a", 1.0), ("a", "b", 1.0), ("b", "c", 1.0)])
        sets = {name: WaypointScores(dict(zip("abc", ps)), 1.0)
                for name, ps in (("A", (0.5, 0.3, 0.2)), ("B", (0.2, 0.3, 0.5)),
                                 ("C", (0.3, 0.5, 0.2)))}
        return env, sets

    def test_alternating_scored_sets_keep_both_tables(self):
        env, sets = self.line_env_and_scores()
        _cost_to_go.cache_clear()
        for name in "ABAB":
            plan_optimal(env, "s", sets[name])
        info = _cost_to_go.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_least_recently_used_table_is_evicted_by_states(self, monkeypatch):
        env, sets = self.line_env_and_scores()
        # Each table over 3 scored waypoints holds 2^3 * 3 = 24 states.
        monkeypatch.setattr(planner, "TABLE_STATE_BUDGET", 48)
        _cost_to_go.cache_clear()
        for name in "ABAC":
            plan_optimal(env, "s", sets[name])
        info = _cost_to_go.cache_info()
        assert (info.misses, info.hits, info.tables, info.states) == (3, 1, 2, 48)
        plan_optimal(env, "s", sets["A"])
        assert _cost_to_go.cache_info().misses == 3
        plan_optimal(env, "s", sets["B"])
        assert _cost_to_go.cache_info().misses == 4

    def test_concurrent_plans_share_tables_without_lost_counts(self):
        env, sets = self.line_env_and_scores()
        names = "ABC" * 100
        expected = {name: plan_optimal(env, "s", sets[name]) for name in "ABC"}
        _cost_to_go.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                plans = list(pool.map(lambda name: plan_optimal(env, "s", sets[name]),
                                      names, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert plans == [expected[name] for name in names]
        info = _cost_to_go.cache_info()
        assert info.hits + info.misses == len(names)
        assert (info.tables, info.states) == (3, 3 * 24)

    def test_room_search_on_the_farm_reuses_tables(self, farm_cfg):
        _cost_to_go.cache_clear()
        cli.run_batch(farm_cfg, "room_search", 200, 5,
                      room_scorer=TableRoomScorer(farm_cfg.room_scores),
                      embedder=TableEmbedder(farm_cfg.embeddings))
        assert _cost_to_go.cache_info().misses == 7

    def test_output_does_not_depend_on_cache_history(self, farm_cfg, tmp_path):
        def bench_bytes(out):
            assert cli.main(["bench", "--scenario", str(FARM_SCENARIO), "--trials", "200",
                             "--seed", "5", "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        _cost_to_go.cache_clear()
        cold = bench_bytes(tmp_path / "cold")
        _cost_to_go.cache_clear()
        for target in ("screwdriver", "water tap"):
            cli.run_bench(farm_cfg, list(cli.METHODS), 50, 7, target=target,
                          affinity_scorer=TableScorer(farm_cfg.scorer.table),
                          room_scorer=TableRoomScorer(farm_cfg.room_scores),
                          embedder=TableEmbedder(farm_cfg.embeddings))
        assert bench_bytes(tmp_path / "warm") == cold
        misses = _cost_to_go.cache_info().misses
        assert bench_bytes(tmp_path / "hot") == cold
        assert _cost_to_go.cache_info().misses == misses

    def test_plan_frees_its_working_state_on_return(self):
        # With the cyclic GC off, whatever the walk leaves in a reference
        # cycle (its kept prefixes, the table) stays allocated: 1.8 MB here.
        # The 0.5 MB bound leaves room for the interpreter's free lists, which
        # keep up to 2000 tuples of each size (about 0.13 MB after this plan).
        ids = [f"leaf{i:02d}" for i in range(10)]
        env = make_env([("hub", 0, 0)] + [(w, i, 1) for i, w in enumerate(ids)],
                       [("hub", w, 1.0) for w in ids])
        scores = WaypointScores({w: 1 / 10 for w in ids}, 1.0)
        _cost_to_go.cache_clear()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = plan_optimal(env, "hub", scores)
            _cost_to_go.cache_clear()
            left = tracemalloc.get_traced_memory()[0] - before
            unreachable = gc.collect()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert plan.sequence == tuple(ids)
        assert left < 0.5 * 2**20
        assert unreachable == 0


class TestPlanProperties:
    def test_scale_invariance_of_argmin(self):
        rng = random.Random(77)
        for _ in range(10):
            env, start, scores, _ = _random_instance(rng, max_scored=5)
            config = PlannerConfig()
            plan = plan_optimal(env, start, scores, config)
            doubled = make_env(
                [(w.id, w.x, w.y) for w in env.waypoints.values()],
                [(e.a, e.b, e.length * 3.0) for e in env.edges],
            )
            plan2 = plan_optimal(doubled, start, scores, config)
            assert plan2.sequence == plan.sequence

    def test_cumulative_ends_at_total_mass(self):
        rng = random.Random(42)
        for _ in range(10):
            env, start, scores, config = _random_instance(rng, max_scored=5)
            plan = plan_optimal(env, start, scores, config)
            assert plan.per_step[-1].cumulative == pytest.approx(scores.total_mass, abs=1e-9)

    def test_no_scored_waypoints_rejected(self):
        env = symmetric_pair_env()
        with pytest.raises(PlannerError):
            plan_optimal(env, "s", WaypointScores({"v1": 0.0}, 0.0))
