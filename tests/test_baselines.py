import math
import re

import pytest

from semsearch.affinity import AffinityDistribution, TableScorer, score_distribution
from semsearch.baselines import (
    EmbeddingError,
    HashEmbedder,
    LLMRoomScorer,
    MissingRoomScoreError,
    RoomScoreParseError,
    TableEmbedder,
    TableRoomScorer,
    cosine,
    hottest_object_plan,
    hottest_waypoint_plan,
    plan_room_search,
    room_scores,
    similarity_rank,
)
from semsearch.llm_gateway import CompletionResult, GatewayConfig, TokenLogprobs
from semsearch.planner import PlannerConfig, WaypointScores, waypoint_scores

from conftest import make_env
from oracles import eq3_cost

def room_dist(entries):
    return AffinityDistribution("drill", entries, dict(entries))


class FakeGateway:
    """Returns scripted answer texts in order; no network."""

    def __init__(self, answers):
        self.config = GatewayConfig(api_key="fake")
        self.answers = list(answers)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        text = self.answers.pop(0)
        return CompletionResult(answer_text=text,
                                token_logprobs=TokenLogprobs((("x", -0.1),)),
                                model_echo="fake", latency_ms=1.0)


class TestRoomScores:
    def test_single_room(self):
        dist = room_scores(TableRoomScorer({"shed|drill": 50}), ["shed"], "drill")
        assert dist.entries == {"shed": 1.0}

    def test_table_normalization(self):
        table = TableRoomScorer({
            "tool storage|drill": 80, "wash area|drill": 10,
            "water station|drill": 5, "harvest station|drill": 5,
        })
        rooms = ["tool storage", "wash area", "water station", "harvest station"]
        dist = room_scores(table, rooms, "drill")
        assert dist.entries["tool storage"] == pytest.approx(0.8)
        assert dist.entries["wash area"] == pytest.approx(0.1)
        assert dist.entries["water station"] == pytest.approx(0.05)
        assert dist.entries["harvest station"] == pytest.approx(0.05)

    def test_missing_entry_without_default(self):
        with pytest.raises(MissingRoomScoreError, match="shed"):
            room_scores(TableRoomScorer({"barn|drill": 10}), ["shed"], "drill")

    def test_default_fills_gaps(self):
        dist = room_scores(TableRoomScorer({"barn|drill": 30, "default": 10}),
                           ["barn", "shed"], "drill")
        assert dist.entries == {"barn": 0.75, "shed": 0.25}

    def test_all_zero_uniform_fallback(self):
        with pytest.warns(RuntimeWarning, match="uniform"):
            dist = room_scores(TableRoomScorer({"default": 0}), ["a", "b"], "drill")
        assert dist.entries == {"a": 0.5, "b": 0.5}

    def test_sum_below_score_floor_uniform_fallback(self):
        with pytest.warns(RuntimeWarning, match="uniform"):
            dist = room_scores(TableRoomScorer({"a|drill": 1e-13, "default": 0}),
                               ["a", "b"], "drill")
        assert dist.entries == {"a": 0.5, "b": 0.5}

    def test_entries_follow_room_order_not_reply_order(self):
        dist = room_scores(LLMRoomScorer(FakeGateway(["b: 40\na: 60"])), ["a", "b"], "drill")
        assert list(dist.entries) == ["a", "b"]
        assert dist.entries == {"a": 0.6, "b": 0.4}

    def test_llm_path_parses_line_format(self):
        gateway = FakeGateway(["tool storage: 80\nwash area: 10\nharvest station: 5"])
        scorer = LLMRoomScorer(gateway)
        raw = scorer.score_rooms(["tool storage", "wash area", "harvest station"], "drill")
        assert raw == {"tool storage": 80.0, "wash area": 10.0, "harvest station": 5.0}
        assert gateway.calls == 1

    def test_llm_path_reprompts_once(self):
        gateway = FakeGateway(["no idea, sorry", "a: 60\nb: 40"])
        raw = LLMRoomScorer(gateway).score_rooms(["a", "b"], "drill")
        assert raw == {"a": 60.0, "b": 40.0}
        assert gateway.calls == 2

    def test_llm_path_fails_after_reprompt(self):
        gateway = FakeGateway(["nope", "still nope"])
        with pytest.raises(RoomScoreParseError):
            LLMRoomScorer(gateway).score_rooms(["a", "b"], "drill")

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            room_dist({"a": 0.9, "b": 0.3})
        with pytest.raises(ValueError):
            room_dist({"a": 1.5, "b": -0.5})
        with pytest.raises(ValueError, match="'barn' is not 'room"):
            TableRoomScorer({"barn": 1})
        with pytest.raises(ValueError, match="'default' is negative"):
            TableRoomScorer({"shed|drill": 1, "default": -1})


class TestSimilarityRank:
    def test_identical_label_ranks_first_any_provider(self):
        for embedder in (HashEmbedder(), TableEmbedder({"drill": (1.0, 0.0), "rake": (0.0, 1.0)})):
            ranking = similarity_rank(embedder, ["rake", "drill"], "drill")
            assert next(iter(ranking)) == "drill"
            assert ranking["drill"] == pytest.approx(1.0, abs=1e-12)

    def test_table_matches_hand_cosines(self):
        vectors = {"drill": (1.0, 0.0), "rake": (1.0, 1.0), "hose": (0.0, 1.0)}
        ranking = similarity_rank(TableEmbedder(vectors), ["rake", "hose"], "drill")
        assert ranking["rake"] == pytest.approx(1 / math.sqrt(2))
        assert ranking["hose"] == pytest.approx(0.0)
        assert list(ranking) == ["rake", "hose"]

    def test_equal_similarity_ties_lexicographic(self):
        vectors = {"t": (1.0, 0.0), "b": (0.0, 1.0), "a": (0.0, 1.0)}
        ranking = similarity_rank(TableEmbedder(vectors), ["b", "a"], "t")
        assert list(ranking) == ["a", "b"]

    def test_order_invariance(self):
        embedder = HashEmbedder()
        r1 = similarity_rank(embedder, ["a", "b", "c"], "t")
        r2 = similarity_rank(embedder, ["c", "b", "a"], "t")
        assert list(r1.items()) == list(r2.items())

    def test_missing_table_vector(self):
        with pytest.raises(EmbeddingError, match="rake"):
            similarity_rank(TableEmbedder({"drill": (1.0,)}), ["rake"], "drill")

    @pytest.mark.parametrize("vectors, message", [
        pytest.param({"drill": (1.0, 0.0), "Drill ": (0.0, 1.0)},
                     "labels 'drill' and 'Drill ' name the same label", id="duplicate"),
        pytest.param({"drill": (1.0, 0.0), "Hose ": (0.0, 0.0)},
                     "vector for 'Hose ' is empty or all zero", id="zero"),
        pytest.param({"Drill": (1.0, 0.0), "Hose ": (0.0, 1.0, 0.5)},
                     "vector for 'Hose ' has length 3, but the one for 'Drill' has length 2",
                     id="length"),
        pytest.param({"drill": (1.0, 0.0), "Hose ": (math.nan, math.nan)},
                     "vector for 'Hose ' has a non-finite component", id="nan"),
    ])
    def test_table_vectors_checked_at_construction(self, vectors, message):
        with pytest.raises(EmbeddingError, match=re.escape(message)):
            TableEmbedder(vectors)

    def test_cosine_range(self):
        embedder = HashEmbedder()
        for label in ("a", "b", "c"):
            sim = cosine(embedder.embed(label), embedder.embed("target"))
            assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9


def two_room_env():
    # start s exactly between room A (a1) and room B (b1); one object each
    return make_env(
        [("s", 0, 0), ("a1", 2, 0), ("b1", -2, 0)],
        [("s", "a1", 2.0), ("s", "b1", 2.0)],
        [("obj-a", "rake", "a1"), ("obj-b", "hose", "b1")],
        [("A", ["a1"]), ("B", ["b1"])],
    )


def overlap_ranking(env):
    # "drill bit" ranks above "hose" above "rake" for the target "drill"
    vectors = {"drill": (1.0, 0.0), "drill bit": (1.0, 0.1), "hose": (0.5, 1.0),
               "rake": (0.0, 1.0)}
    return similarity_rank(TableEmbedder(vectors), env.labels(), "drill")


class TestPlanRoomSearch:
    def test_single_room_single_object_waypoint(self):
        env = make_env(
            [("s", 0, 0), ("a1", 1, 0)],
            [("s", "a1", 1.0)],
            [("obj-a", "rake", "a1")],
            [("A", ["a1"])],
        )
        plan = plan_room_search(env, room_dist({"A": 1.0}), "s")
        assert plan.sequence == ("a1",)
        assert plan.total_mass == pytest.approx(1.0)

    def test_higher_probability_room_first_at_equal_distance(self):
        env = two_room_env()
        dist = room_dist({"A": 0.9, "B": 0.1})
        plan = plan_room_search(env, dist, "s")
        # hand evaluation of the two room orderings under the plan cost
        norm = env.max_pairwise_distance
        cost_ab = eq3_cost(env.distance, "s", ("a1", "b1"), {"a1": 0.9, "b1": 0.1}, 1.0, norm)
        cost_ba = eq3_cost(env.distance, "s", ("b1", "a1"), {"b1": 0.1, "a1": 0.9}, 1.0, norm)
        assert cost_ab < cost_ba
        assert plan.sequence == ("a1", "b1")

    def test_moves_to_next_room_after_exhausting_areas(self):
        env = two_room_env()
        plan = plan_room_search(env, room_dist({"A": 0.6, "B": 0.4}), "s")
        assert plan.sequence == ("a1", "b1")
        assert plan.per_step[0].score == pytest.approx(0.6)
        assert plan.per_step[1].score == pytest.approx(0.4)
        assert plan.per_step[1].cumulative == pytest.approx(1.0)

    def test_each_room_visited_at_most_once(self, farm_cfg):
        from semsearch.baselines import TableRoomScorer as TRS
        dist = room_scores(TRS(farm_cfg.room_scores), sorted(farm_cfg.env.rooms), "drill")
        ranking = similarity_rank(TableEmbedder(farm_cfg.embeddings),
                                  farm_cfg.env.labels(), "drill")
        plan = plan_room_search(farm_cfg.env, dist, "hv1", ranking=ranking)
        rooms_in_order = []
        for wid in plan.sequence:
            for name, room in farm_cfg.env.rooms.items():
                if wid in room.waypoints and (not rooms_in_order or rooms_in_order[-1] != name):
                    rooms_in_order.append(name)
        assert len(rooms_in_order) == len(set(rooms_in_order))

    def test_within_room_order_follows_similarity(self):
        env = make_env(
            [("s", 0, 0), ("a1", 1, 0), ("a2", 2, 0)],
            [("s", "a1", 1.0), ("a1", "a2", 1.0)],
            [("obj-near", "hose", "a1"), ("obj-far", "drill bit", "a2")],
            [("A", ["a1", "a2"])],
        )
        vectors = {"drill": (1.0, 0.0), "drill bit": (1.0, 0.1), "hose": (0.0, 1.0)}
        ranking = similarity_rank(TableEmbedder(vectors), ["hose", "drill bit"], "drill")
        plan = plan_room_search(env, room_dist({"A": 1.0}), "s", ranking=ranking)
        # the more similar object's waypoint comes first even though it is farther
        assert plan.sequence == ("a2", "a1")

    @pytest.mark.parametrize("score_weight", [1.0, 10.0])
    def test_covered_room_mass_goes_to_its_last_visited_sweep_waypoint(self, score_weight):
        # B = {w2} is covered by A's sweep (w2, then w1); B's mass belongs to
        # w2, not to whichever step happens to be last when B is taken up.
        env = make_env(
            [("s", 0, 0), ("w1", 1, 0), ("w2", 2, 0), ("w3", 3, 0)],
            [("s", "w1", 1.0), ("w1", "w2", 1.0), ("w2", "w3", 1.0)],
            [("o1", "hose", "w1"), ("o2", "drill bit", "w2"), ("o3", "rake", "w3")],
            [("A", ["w1", "w2"]), ("B", ["w2"]), ("C", ["w3"])],
        )
        plan = plan_room_search(env, room_dist({"A": 0.9, "B": 0.01, "C": 0.09}), "s",
                                PlannerConfig(score_weight=score_weight),
                                overlap_ranking(env))
        assert plan.sequence == ("w2", "w1", "w3")
        assert [step.score for step in plan.per_step] == pytest.approx([0.46, 0.45, 0.09])

    def test_covered_room_takes_no_detour_to_an_empty_representative(self):
        # B's representative w5 hosts no object; B's only object-bearing
        # waypoint w2 was swept for A, so B adds no step.
        env = make_env(
            [("s", 0, 0), ("w1", 1, 0), ("w2", 2, 0), ("w5", 2, 1), ("w6", 2, 2)],
            [("s", "w1", 1.0), ("w1", "w2", 1.0), ("w2", "w5", 1.0), ("w5", "w6", 1.0)],
            [("o1", "hose", "w1"), ("o2", "drill bit", "w2")],
            [("A", ["w1", "w2"]), ("B", ["w2", "w5", "w6"])],
        )
        plan = plan_room_search(env, room_dist({"A": 0.9, "B": 0.1}), "s",
                                ranking=overlap_ranking(env))
        assert plan.sequence == ("w2", "w1")
        assert [step.score for step in plan.per_step] == pytest.approx([0.55, 0.45])
        assert plan.per_step[-1].cumulative == pytest.approx(1.0)

    def test_unknown_room_rejected(self):
        env = two_room_env()
        with pytest.raises(Exception, match="shed"):
            plan_room_search(env, room_dist({"shed": 1.0}), "s")


class TestHottestObject:
    def dist(self, entries):
        return AffinityDistribution("drill", entries, dict(entries))

    def test_argmax_object(self):
        env = two_room_env()
        plan = hottest_object_plan(env, self.dist({"rake": 0.7, "hose": 0.3}), "s")
        assert plan.sequence == ("a1",)
        assert plan.total_mass == pytest.approx(1.0)

    def test_tie_breaks_to_smaller_instance_id(self):
        env = make_env(
            [("s", 0, 0), ("w1", 1, 0), ("w2", 2, 0)],
            [("s", "w1", 1.0), ("w1", "w2", 1.0)],
            [("obj-b", "rake", "w2"), ("obj-a", "hose", "w1")],
        )
        plan = hottest_object_plan(env, self.dist({"rake": 0.5, "hose": 0.5}), "s")
        assert plan.sequence == ("w1",)  # obj-a wins the tie

    def test_farm_target_drill_goes_to_tool_waypoint(self, farm_cfg):
        dist = score_distribution(TableScorer(farm_cfg.scorer.table),
                                  farm_cfg.env.labels(), "drill")
        plan = hottest_object_plan(farm_cfg.env, dist, "hv1")
        assert plan.sequence == (farm_cfg.env.objects["obj-screwdriver"].waypoint,)

    def test_ignores_distance_entirely(self):
        env = two_room_env()
        doubled = make_env(
            [(w.id, w.x, w.y) for w in env.waypoints.values()],
            [(e.a, e.b, e.length * 2) for e in env.edges],
            [(o.instance_id, o.label, o.waypoint) for o in env.objects.values()],
        )
        d = self.dist({"rake": 0.7, "hose": 0.3})
        assert hottest_object_plan(env, d, "s").sequence == hottest_object_plan(doubled, d, "s").sequence


class TestHottestWaypoint:
    def test_argmax_waypoint(self):
        env = two_room_env()
        scores = WaypointScores({"a1": 0.6, "b1": 0.4}, 1.0)
        plan = hottest_waypoint_plan(env, scores, "s")
        assert plan.sequence == ("a1",)

    def test_all_equal_breaks_lexicographically(self):
        env = two_room_env()
        scores = WaypointScores({"a1": 0.5, "b1": 0.5}, 1.0)
        assert hottest_waypoint_plan(env, scores, "s").sequence == ("a1",)

    def test_sum_beats_single_maximum(self):
        # three weakly related objects on one waypoint outscore the single
        # strongly related object elsewhere
        env = make_env(
            [("s", 0, 0), ("wa", 1, 0), ("wb", 2, 0)],
            [("s", "wa", 1.0), ("wa", "wb", 1.0)],
            [("obj-1", "rake", "wa"), ("obj-2", "hoe", "wa"), ("obj-3", "tarp", "wa"),
             ("obj-4", "bit", "wb")],
        )
        dist = AffinityDistribution("drill", {"rake": 0.2, "hoe": 0.2, "tarp": 0.2, "bit": 0.4},
                                    {"rake": 0.2, "hoe": 0.2, "tarp": 0.2, "bit": 0.4})
        scores = waypoint_scores(env, dist)
        assert hottest_waypoint_plan(env, scores, "s").sequence == ("wa",)
        assert hottest_object_plan(env, dist, "s").sequence == ("wb",)
