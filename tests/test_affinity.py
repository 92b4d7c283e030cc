import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsearch.affinity import (
    AffinityDistribution,
    MissingAffinityError,
    ScorerError,
    TableScorer,
    aggregate_logprobs,
    build_prompt,
    normalize_label,
    score_distribution,
    split_across_instances,
)
from semsearch.baselines import MissingRoomScoreError, TableRoomScorer
from semsearch.env_graph import SeenObject
from semsearch.llm_gateway import TokenLogprobs


def tl(*values):
    return TokenLogprobs(tuple((f"t{i}", v) for i, v in enumerate(values)))


class TestBuildPrompt:
    def test_substitution(self):
        pair = build_prompt("screwdriver", "drill")
        assert pair.user_text == "I see the following: screwdriver. Where should I go to find drill?"
        assert pair.system_text.startswith("You are an expert object location reasoning robot.")
        assert pair.system_text.endswith("must output a seen object to go to.")

    def test_identical_labels_allowed(self):
        pair = build_prompt("x", "x")
        assert pair.user_text == "I see the following: x. Where should I go to find x?"

    def test_multi_word_labels_unmodified(self):
        pair = build_prompt("water tap", "watering can")
        assert pair.user_text == "I see the following: water tap. Where should I go to find watering can?"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            build_prompt("", "drill")
        with pytest.raises(ValueError):
            build_prompt("hammer", "   ")


class TestAggregateLogprobs:
    def test_certain_single_token(self):
        assert aggregate_logprobs(tl(0.0)) == 1.0

    def test_two_token_mean(self):
        value = aggregate_logprobs(tl(-0.5, -1.5))
        assert value == pytest.approx(0.3678794, abs=1e-7)
        assert abs(value - math.exp(-1.0)) < 1e-12

    def test_single_negative_token(self):
        assert aggregate_logprobs(tl(-2.0)) == pytest.approx(0.1353353, abs=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_logprobs(TokenLogprobs(tuple()))

    @given(st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=1, max_size=64))
    def test_matches_exp_mean(self, values):
        expected = math.exp(math.fsum(values) / len(values))
        assert abs(aggregate_logprobs(tl(*values)) - expected) < 1e-12

    @given(st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=1, max_size=32),
           st.data())
    @settings(max_examples=200)
    def test_strictly_monotone_in_each_token(self, values, data):
        index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        bump = data.draw(st.floats(min_value=1e-6, max_value=5.0))
        base = aggregate_logprobs(tl(*values))
        raised = list(values)
        raised[index] = min(0.0, raised[index] + bump)
        if raised[index] - values[index] >= 1e-9:
            assert aggregate_logprobs(tl(*raised)) > base

    @given(st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=2, max_size=16),
           st.randoms())
    def test_invariant_under_reordering(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert aggregate_logprobs(tl(*shuffled)) == pytest.approx(
            aggregate_logprobs(tl(*values)), abs=1e-12)


class TestTableScorer:
    def test_lookup(self):
        scorer = TableScorer({"screwdriver|drill": 0.9})
        assert scorer.score("screwdriver", "drill") == 0.9

    def test_default_for_absent_pair(self):
        scorer = TableScorer({"screwdriver|drill": 0.9, "default": 0.01})
        assert scorer.score("rake", "drill") == 0.01

    def test_missing_pair_without_default(self):
        scorer = TableScorer({"screwdriver|drill": 0.9})
        with pytest.raises(MissingAffinityError):
            scorer.score("rake", "drill")

    def test_case_and_whitespace_insensitive(self):
        scorer = TableScorer({"Water Tap|Drill": 0.4})
        assert scorer.score("  water tap ", "DRILL") == 0.4

    def test_value_range_validated(self):
        for table in ({"a|b": 1.5}, {"a|b": 0.5, "default": 1.5}):
            with pytest.raises(ValueError, match="above 1.0"):
                TableScorer(table)
        # room scores have no upper cap
        assert TableRoomScorer({"a|b": 80, "default": 150}).score("a", "b") == 80

    @pytest.mark.parametrize("cls, missing", [
        pytest.param(TableScorer, MissingAffinityError, id="affinity"),
        pytest.param(TableRoomScorer, MissingRoomScoreError, id="room"),
    ])
    def test_rules_shared_with_room_table(self, cls, missing):
        with pytest.raises(ValueError, match="'barn' is not"):
            cls({"barn": 0.5})
        for table in ({"barn|drill": -0.1}, {"barn|drill": 0.5, "default": -1}):
            with pytest.raises(ValueError, match="negative"):
                cls(table)
        scorer = cls({"Water Tap|Drill": 0.4})
        assert scorer.score("  water tap ", "DRILL") == 0.4
        with pytest.raises(missing, match=r"'rake'\|'drill'"):
            scorer.score("rake", "drill")


class TestScoreDistribution:
    def test_equal_raw_scores(self):
        dist = score_distribution(TableScorer({"a|t": 0.4, "b|t": 0.4}), ["a", "b"], "t")
        assert dist.entries == {"a": 0.5, "b": 0.5}

    def test_hand_normalization(self):
        raw_a, raw_b = math.exp(-1.0), math.exp(-2.0)
        dist = score_distribution(TableScorer({"a|t": raw_a, "b|t": raw_b}), ["a", "b"], "t")
        assert dist.entries["a"] == pytest.approx(0.73106, abs=1e-5)
        assert dist.entries["b"] == pytest.approx(0.26894, abs=1e-5)
        assert dist.raw == {"a": raw_a, "b": raw_b}

    def test_farm_table_ranks_tools_first(self, farm_doc):
        labels = ["farm cart", "drill", "pliers", "watering can", "hammer",
                  "water hose nozzle", "bolt cutters", "water tap", "water pipe",
                  "hand rake", "screwdriver", "shovel", "chisel"]
        dist = score_distribution(TableScorer(farm_doc["scorer"]["table"]), labels, "drill")
        top = max(dist.entries, key=dist.entries.get)
        assert top in {"screwdriver", "chisel", "shovel"}

    def test_order_invariance(self):
        table = TableScorer({"a|t": 0.2, "b|t": 0.5, "c|t": 0.3})
        d1 = score_distribution(table, ["a", "b", "c"], "t")
        d2 = score_distribution(table, ["c", "a", "b"], "t")
        assert d1.entries == d2.entries

    def test_scaling_invariance(self):
        base = {"a|t": 0.8, "b|t": 0.4, "c|t": 0.2}
        scaled = {k: v * 0.37 for k, v in base.items()}
        d1 = score_distribution(TableScorer(base), ["a", "b", "c"], "t")
        d2 = score_distribution(TableScorer(scaled), ["a", "b", "c"], "t")
        for key in d1.entries:
            assert d1.entries[key] == pytest.approx(d2.entries[key], abs=1e-12)

    def test_all_zero_falls_back_to_uniform_with_warning(self):
        with pytest.warns(RuntimeWarning, match="uniform"):
            dist = score_distribution(TableScorer({"a|t": 0.0, "b|t": 0.0}), ["a", "b"], "t")
        assert dist.entries == {"a": 0.5, "b": 0.5}

    def test_failure_names_label(self):
        scorer = TableScorer({"a|t": 0.5})
        with pytest.raises(ScorerError, match="'b'"):
            score_distribution(scorer, ["a", "b"], "t")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            score_distribution(TableScorer({"a|t": 0.5}), ["a", "A "], "t")

    def test_parallel_matches_sequential(self):
        table = TableScorer({"a|t": 0.2, "b|t": 0.5, "c|t": 0.3, "d|t": 0.1})
        labels = ["a", "b", "c", "d"]
        assert (score_distribution(table, labels, "t", parallel=4).entries
                == score_distribution(table, labels, "t").entries)

    @given(st.dictionaries(st.sampled_from("abcdefgh"), st.floats(min_value=0.01, max_value=1.0),
                           min_size=1, max_size=8))
    def test_normalized_within_tolerance(self, raw):
        table = TableScorer({f"{k}|t": v for k, v in raw.items()})
        dist = score_distribution(table, sorted(raw), "t")
        assert abs(math.fsum(dist.entries.values()) - 1.0) <= 1e-9
        assert all(p >= 0 for p in dist.entries.values())


class TestDistributionType:
    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sums"):
            AffinityDistribution("t", {"a": 0.7, "b": 0.7}, {"a": 1.0, "b": 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            AffinityDistribution("t", {"a": 1.5, "b": -0.5}, {"a": 1.0, "b": 1.0})


class TestInstanceSplitting:
    def test_duplicate_labels_share_mass(self):
        dist = AffinityDistribution("t", {"shovel": 0.6, "rake": 0.4},
                                    {"shovel": 0.6, "rake": 0.4})
        objects = [SeenObject("obj-1", "shovel", "w1"),
                   SeenObject("obj-2", "shovel", "w2"),
                   SeenObject("obj-3", "rake", "w3")]
        probs = split_across_instances(dist, objects)
        assert probs == {"obj-1": 0.3, "obj-2": 0.3, "obj-3": 0.4}
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_label_missing_from_distribution(self):
        dist = AffinityDistribution("t", {"shovel": 1.0}, {"shovel": 1.0})
        with pytest.raises(ScorerError, match="rake"):
            split_across_instances(dist, [SeenObject("obj-1", "rake", "w1")])

    def test_normalize_label(self):
        assert normalize_label("  Water Tap ") == "water tap"
