import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semsearch.env_graph import GroundTruth
from semsearch.metrics import (
    build_report,
    episode_row,
    path_efficiency,
    pe_defined,
    spl,
    spl_term,
    success_rate,
)
from semsearch.planner import SearchPlan
from semsearch.search_sim import EpisodeResult, Outcome, SimulationParams, run_episode

from conftest import make_env, random_connected_graph
from oracles import simple_path_distance


def episode(outcome, traversed, ideal, seed=0):
    return EpisodeResult(outcome=outcome, traversed_length=traversed,
                         ideal_length=ideal, steps=tuple(), seed=seed)


def found(traversed, ideal):
    return episode(Outcome.FOUND, traversed, ideal)


def failed(traversed=10.0, ideal=5.0, outcome=Outcome.LOST):
    return episode(outcome, traversed, ideal)


class TestSuccessRate:
    def test_twelve_of_fifteen(self):
        results = [found(5, 5)] * 12 + [failed()] * 3
        assert success_rate(results) == 0.80

    def test_all_found(self):
        assert success_rate([found(3, 3)] * 4) == 1.0

    def test_outcome_classification(self):
        results = [found(5, 5),
                   failed(outcome=Outcome.FOUND_FALSE),
                   failed(outcome=Outcome.LOST)]
        assert success_rate(results) == pytest.approx(1 / 3)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            success_rate([])


class TestSpl:
    def test_optimal_path(self):
        assert spl([found(10.0, 10.0)]) == 1.0

    def test_success_plus_failure(self):
        assert spl([found(10.0, 10.0), failed()]) == 0.5

    def test_longer_than_ideal(self):
        assert spl([found(12.5, 10.0)]) == pytest.approx(0.8)

    def test_shorter_traversal_clamps(self):
        # a found episode cannot beat the shortest path; max() guards the ratio
        assert spl_term(found(4.0, 5.0)) == 1.0

    def test_target_at_start_contributes_success_indicator(self):
        assert spl_term(found(0.0, 0.0)) == 1.0
        assert spl_term(failed(traversed=3.0, ideal=0.0)) == 0.0

    def test_spl_at_most_sr(self):
        rng = random.Random(0)
        for _ in range(200):
            batch = [episode(rng.choice(list(Outcome)), rng.uniform(0, 50), rng.uniform(0, 50))
                     for _ in range(rng.randint(1, 20))]
            assert spl(batch) <= success_rate(batch) + 1e-12

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=0.0, max_value=100.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    min_size=1, max_size=30))
    def test_spl_at_most_sr_property(self, rows):
        batch = [episode(Outcome.FOUND if ok else Outcome.LOST, t, i) for ok, t, i in rows]
        assert spl(batch) <= success_rate(batch) + 1e-12


class TestPathEfficiency:
    def test_ideal_traversal(self):
        assert path_efficiency(found(10.0, 10.0)) == 1.0

    def test_hand_value(self):
        assert path_efficiency(found(10.0, 8.4)) == pytest.approx(0.84)

    def test_distant_argmax_magnitude(self):
        assert path_efficiency(failed(traversed=25.0, ideal=5.0, outcome=Outcome.EXHAUSTED)) == pytest.approx(0.2)

    def test_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(100):
            r = episode(Outcome.FOUND, rng.uniform(0.1, 50), rng.uniform(0.1, 50))
            assert 0.0 < path_efficiency(r) <= 1.0

    def test_requires_positive_lengths(self):
        with pytest.raises(ValueError):
            path_efficiency(found(10.0, 0.0))
        with pytest.raises(ValueError):
            path_efficiency(episode(Outcome.EXHAUSTED, 0.0, 5.0))
        assert not pe_defined(found(10.0, 0.0))


def ideal_length(env, start, truth):
    """The ideal length run_episode reports, from an empty plan at `start`."""
    plan = SearchPlan(start=start, sequence=(), cost=0.0, per_step=(), total_mass=0.0)
    return run_episode(env, plan, truth, SimulationParams()).ideal_length


class TestIdealLength:
    def test_target_at_start(self, line_env):
        truth = GroundTruth("drill", "obj-a")
        assert ideal_length(line_env, "w1", truth) == 0.0

    def test_path_graph(self, line_env):
        truth = GroundTruth("drill", "obj-b")
        assert ideal_length(line_env, "w1", truth) == 5.0

    def test_matches_enumeration(self):
        rng = random.Random(31)
        waypoints, edges = random_connected_graph(rng)
        env = make_env(waypoints, edges, [("obj-1", "pump", waypoints[-1][0])])
        truth = GroundTruth("drill", "obj-1")
        start = waypoints[0][0]
        assert ideal_length(env, start, truth) == pytest.approx(
            simple_path_distance(edges, start, waypoints[-1][0]), abs=1e-9)


class TestScaleInvariance:
    def test_metrics_invariant_under_edge_scaling(self):
        for c in (0.5, 3.0):
            base = [found(12.5, 10.0), failed(traversed=20.0, ideal=4.0)]
            scaled = [episode(r.outcome, r.traversed_length * c, r.ideal_length * c)
                      for r in base]
            assert spl(scaled) == pytest.approx(spl(base), abs=1e-12)
            assert success_rate(scaled) == success_rate(base)
            assert path_efficiency(scaled[0]) == pytest.approx(path_efficiency(base[0]), abs=1e-12)


class TestBatchReport:
    def rows(self, results):
        return [episode_row(i, "s", f"obj-{i}", "drill", r.seed, r)
                for i, r in enumerate(results)]

    def test_aggregates(self):
        results = [found(10.0, 10.0), found(12.5, 10.0), failed(traversed=25.0, ideal=5.0)]
        report = build_report("losae", self.rows(results))
        assert report.episodes == 3
        assert report.sr == pytest.approx(2 / 3)
        assert report.spl == pytest.approx((1.0 + 0.8) / 3)
        pes = [1.0, 0.8, 0.2]
        mean = sum(pes) / 3
        assert report.pe_mean == pytest.approx(mean)
        assert report.pe_std == pytest.approx(math.sqrt(sum((p - mean) ** 2 for p in pes) / 3))
        assert report.pe_excluded == 0

    def test_zero_ideal_excluded_from_pe_and_annotated(self):
        results = [found(0.0, 0.0), found(10.0, 10.0)]
        report = build_report("losae", self.rows(results))
        assert report.pe_excluded == 1
        assert report.pe_mean == 1.0
        assert report.spl == 1.0  # the start-hosted success still counts fully

    def test_spl_bounded_by_sr(self):
        rng = random.Random(8)
        for _ in range(50):
            results = [episode(rng.choice(list(Outcome)), rng.uniform(0, 30), rng.uniform(0, 30))
                       for _ in range(rng.randint(1, 12))]
            report = build_report("x", self.rows(results))
            assert 0.0 <= report.sr <= 1.0
            assert report.spl <= report.sr + 1e-12
            assert report.sr == success_rate(results)
            assert report.spl == spl(results)

    def test_adding_failure_decreases_sr_and_spl(self):
        base = [found(10.0, 10.0), found(12.5, 10.0)]
        bigger = base + [failed()]
        assert success_rate(bigger) < success_rate(base)
        assert spl(bigger) < spl(base)
