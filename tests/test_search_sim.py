import math
import random

import pytest

from semsearch.env_graph import GroundTruth
from semsearch.planner import PlannerConfig, WaypointScores, make_plan
from semsearch.search_sim import (
    Outcome,
    PerceptionModel,
    SimulationParams,
    episode_endings,
    run_episode,
)

from conftest import make_env, random_connected_graph
from oracles import reference_episode

def four_stop_env():
    # start s, then a line of four object waypoints
    waypoints = [("s", 0, 0), ("w1", 1, 0), ("w2", 2, 0), ("w3", 3, 0), ("w4", 4, 0)]
    edges = [("s", "w1", 1.0), ("w1", "w2", 1.0), ("w2", "w3", 1.0), ("w3", "w4", 1.0)]
    objects = [("obj-1", "rake", "w1"), ("obj-2", "hoe", "w2"),
               ("obj-3", "tarp", "w3"), ("obj-4", "pump", "w4")]
    return make_env(waypoints, edges, objects)


def plan_for(env, start, step_scores, order=None, total=None):
    order = order or sorted(step_scores)
    return make_plan(env, start, order, step_scores, PlannerConfig(), "test", total_mass=total)


def perfect():
    return SimulationParams(perception=PerceptionModel(1.0, 0.0), seed=1)


class TestRunEpisode:
    def test_target_at_first_waypoint(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.5, "w2": 0.5}, order=["w1", "w2"])
        result = run_episode(env, plan, GroundTruth("drill", "obj-1"), perfect())
        assert result.outcome is Outcome.FOUND
        assert result.traversed_length == env.distance("s", "w1") == 1.0

    def test_blind_perception_ends_lost(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.5, "w2": 0.3, "w3": 0.15, "w4": 0.05},
                        order=["w1", "w2", "w3", "w4"])
        params = SimulationParams(perception=PerceptionModel(0.0, 0.0), seed=1)
        result = run_episode(env, plan, GroundTruth("drill", "obj-1"), params)
        assert result.outcome is Outcome.LOST
        assert result.steps[-1].cumulative >= 0.95 * plan.total_mass

    def test_hand_simulated_episode(self):
        # scores 0.5/0.3/0.15/0.05 with the target hosted at the third stop:
        # consumed before arrival is 0.8, so the lost rule cannot fire first
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.5, "w2": 0.3, "w3": 0.15, "w4": 0.05},
                        order=["w1", "w2", "w3", "w4"])
        result = run_episode(env, plan, GroundTruth("drill", "obj-3"), perfect())
        assert result.outcome is Outcome.FOUND
        assert len(result.steps) == 3
        assert result.steps[1].cumulative == pytest.approx(0.8)
        assert result.traversed_length == 3.0
        assert result.ideal_length == env.distance("s", "w3")

    def test_episode_is_the_walked_prefix_of_its_plan(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.5, "w2": 0.3, "w3": 0.15, "w4": 0.05},
                        order=["w3", "w1", "w4", "w2"])
        result = run_episode(env, plan, GroundTruth("drill", "obj-4"), perfect())
        assert result.outcome is Outcome.FOUND
        assert all(a is b for a, b in zip(result.steps, plan.per_step[:3], strict=True))
        assert [s.leg_meters for s in result.steps] == [3.0, 2.0, 3.0]
        assert result.traversed_length == result.steps[-1].traversed == 8.0
        assert result.detected == "obj-4"

    def test_false_positive_commits_and_fails(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.5, "w2": 0.5}, order=["w1", "w2"])
        params = SimulationParams(perception=PerceptionModel(1.0, 1.0), seed=3)
        result = run_episode(env, plan, GroundTruth("drill", "obj-2"), params)
        assert result.outcome is Outcome.FOUND_FALSE
        assert result.detected == "obj-1"
        assert result.traversed_length == 1.0

    def test_exhausted_when_mass_below_threshold(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.2}, order=["w1"], total=1.0)
        params = SimulationParams(perception=PerceptionModel(0.0, 0.0), seed=1)
        result = run_episode(env, plan, GroundTruth("drill", "obj-4"), params)
        assert result.outcome is Outcome.EXHAUSTED
        assert result.traversed_length == 1.0

    def test_never_inspects_beyond_lost_trigger(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.96, "w2": 0.02, "w3": 0.01, "w4": 0.01},
                        order=["w1", "w2", "w3", "w4"])
        params = SimulationParams(perception=PerceptionModel(0.0, 0.0), seed=1)
        result = run_episode(env, plan, GroundTruth("drill", "obj-4"), params)
        assert result.outcome is Outcome.LOST
        assert [s.waypoint for s in result.steps] == ["w1"]
        assert result.traversed_length == 1.0

    def test_deterministic_for_identical_inputs(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.4, "w2": 0.3, "w3": 0.3},
                        order=["w1", "w2", "w3"])
        params = SimulationParams(perception=PerceptionModel(0.6, 0.1), seed=42)
        truth = GroundTruth("drill", "obj-2")
        assert run_episode(env, plan, truth, params) == run_episode(env, plan, truth, params)

    def test_found_iff_host_reached_with_perfect_perception(self):
        env = four_stop_env()
        rng = random.Random(9)
        for _ in range(20):
            hosts = ["obj-1", "obj-2", "obj-3", "obj-4"]
            host = rng.choice(hosts)
            scores = {f"w{i}": rng.uniform(0.05, 1.0) for i in range(1, 5)}
            total = sum(scores.values())
            scores = {w: s / total for w, s in scores.items()}
            order = sorted(scores, key=lambda w: -scores[w])
            plan = plan_for(env, "s", scores, order=order)
            result = run_episode(env, plan, GroundTruth("drill", host), perfect())
            host_wp = env.objects[host].waypoint
            reached = host_wp in [s.waypoint for s in result.steps]
            assert (result.outcome is Outcome.FOUND) == reached

    def test_consumed_never_exceeds_total(self):
        env = four_stop_env()
        scores = {"w1": 0.4, "w2": 0.3, "w3": 0.2, "w4": 0.1}
        plan = plan_for(env, "s", scores, order=["w1", "w2", "w3", "w4"])
        params = SimulationParams(perception=PerceptionModel(0.0, 0.0), seed=1)
        result = run_episode(env, plan, GroundTruth("drill", "obj-1"), params)
        # 0.9 after w3 is below the lost threshold, so the episode walks all four stops
        assert result.outcome is Outcome.LOST
        assert [s.waypoint for s in result.steps] == ["w1", "w2", "w3", "w4"]
        assert result.steps[-1].cumulative <= plan.total_mass + 1e-9

    def test_seed_argument_overrides_params_seed(self):
        env = four_stop_env()
        plan = plan_for(env, "s", {"w1": 0.4, "w2": 0.3, "w3": 0.2, "w4": 0.1},
                        order=["w1", "w2", "w3", "w4"])
        truth = GroundTruth("drill", "obj-3")
        noisy = PerceptionModel(0.5, 0.3)
        by_argument = [run_episode(env, plan, truth, SimulationParams(noisy, seed=0), seed=s)
                       for s in range(20)]
        by_params = [run_episode(env, plan, truth, SimulationParams(noisy, seed=s))
                     for s in range(20)]
        assert by_argument == by_params
        # the seed matters under this perception, so equal lists are not vacuous
        assert len({(r.outcome, r.detected, len(r.steps)) for r in by_params}) > 1


class TestInspect:
    def test_host_with_certain_detection(self, line_env):
        plan = plan_for(line_env, "w1", {"w3": 1.0})
        truth = GroundTruth("drill", "obj-b")
        endings = episode_endings(line_env, plan, truth, PerceptionModel(1.0, 0.0))
        assert [(position, rate) for position, rate, _ in endings] == [(0, 1.0)]
        result = endings[0][2]
        assert (result.outcome, result.detected) == (Outcome.FOUND, "obj-b")

    def test_no_host_no_false_positives(self, line_env):
        plan = plan_for(line_env, "w2", {"w1": 1.0})
        truth = GroundTruth("drill", "obj-b")  # hosted elsewhere
        endings = episode_endings(line_env, plan, truth, PerceptionModel(1.0, 0.0))
        # obj-a takes draw 0 but cannot trigger; only the lost end remains
        assert [(position, rate) for position, rate, _ in endings] == [(1, 1.0)]
        result = endings[0][2]
        assert (result.outcome, result.detected) == (Outcome.LOST, None)

    def test_false_positive_rate_matches_closed_form(self):
        # three non-host objects at fp=0.1 where the plan goes: P(any trigger) = 1 - 0.9^3
        env = make_env(
            [("s", 0, 0), ("w1", 1, 0)], [("s", "w1", 1.0)],
            [("obj-1", "rake", "w1"), ("obj-2", "hoe", "w1"), ("obj-3", "tarp", "w1"),
             ("obj-host", "drill", "s")],
        )
        plan = plan_for(env, "s", {"w1": 1.0})
        truth = GroundTruth("drill", "obj-host")
        params = SimulationParams(perception=PerceptionModel(1.0, 0.1))
        hits = sum(run_episode(env, plan, truth, params, seed=20240819 + seed).outcome
                   is Outcome.FOUND_FALSE for seed in range(10_000))
        assert hits / 10_000 == pytest.approx(1 - 0.9 ** 3, abs=0.02)

    def test_instance_id_order(self):
        env = make_env(
            [("w1", 0, 0)], [],
            [("obj-b", "hoe", "w1"), ("obj-a", "rake", "w1")],
        )
        plan = plan_for(env, "w1", {"w1": 1.0})
        params = SimulationParams(perception=PerceptionModel(1.0, 1.0))
        result = run_episode(env, plan, GroundTruth("drill", "obj-b"), params)
        assert result.detected == "obj-a"  # first in instance_id order


# perfect, blind, certain false positives, and fractional rates
ENDING_RATES = [(1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.8, 0.05), (0.8, 0.0), (0.5, 0.3)]


def small_cases(count=25):
    """Seeded (env, plan, host, objects) on random maps with 0-3 objects per waypoint."""
    rng = random.Random(27)
    for _ in range(count):
        waypoints, edges = random_connected_graph(rng, max_nodes=8)
        ids = [w for w, _, _ in waypoints]
        objects = [(f"obj-{w}-{i}", "thing", w) for w in ids for i in range(rng.randint(0, 3))]
        if not objects:
            objects = [(f"obj-{ids[0]}-0", "thing", ids[0])]
        env = make_env(waypoints, edges, objects)
        start = rng.choice(ids)
        order = rng.sample(ids, rng.randint(0, len(ids)))
        scores = {w: rng.uniform(0.01, 1.0) for w in order}
        plan = plan_for(env, start, scores, order=order, total=sum(scores.values()))
        host = rng.choice(objects)[0]
        yield env, plan, host, [(i, w) for i, _, w in objects]


class TestEpisodeEndings:
    @pytest.mark.parametrize("tpr, fpr", ENDING_RATES)
    def test_shape(self, tpr, fpr):
        for env, plan, host, _ in small_cases():
            endings = episode_endings(env, plan, GroundTruth("drill", host),
                                      PerceptionModel(tpr, fpr))
            positions = [position for position, _, _ in endings]
            rates = [rate for _, rate, _ in endings]
            assert positions == sorted(set(positions))  # strictly increasing
            assert positions[-1] <= len(env.objects)
            assert all(rate > 0.0 for rate in rates)
            assert rates[-1] >= 1.0 and all(rate < 1.0 for rate in rates[:-1])

    @pytest.mark.parametrize("tpr, fpr", ENDING_RATES)
    def test_run_episode_matches_reference(self, tpr, fpr):
        outcomes = set()
        for env, plan, host, objects in small_cases():
            params = SimulationParams(perception=PerceptionModel(tpr, fpr))
            for seed in range(20):
                result = run_episode(env, plan, GroundTruth("drill", host), params, seed=seed)
                outcome, detected, walked, meters = reference_episode(
                    plan, objects, env.distance, host, tpr, fpr, seed)
                assert (result.outcome.value, result.detected) == (outcome, detected)
                assert [step.waypoint for step in result.steps] == walked
                assert math.isclose(result.traversed_length, meters, rel_tol=1e-9, abs_tol=1e-9)
                outcomes.add(outcome)
        assert len(outcomes) > 1  # the cases reach more than one kind of ending

    def test_missing_host_raises(self, line_env):
        plan = plan_for(line_env, "w1", {"w3": 1.0})
        with pytest.raises(ValueError, match="obj-missing"):
            episode_endings(line_env, plan, GroundTruth("drill", "obj-missing"),
                            PerceptionModel())


class TestParams:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PerceptionModel(true_positive_rate=1.2)
        with pytest.raises(ValueError):
            PerceptionModel(false_positive_rate=-0.1)
