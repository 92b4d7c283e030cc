import csv
import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semsearch import metrics
from semsearch.affinity import TableScorer
from semsearch.baselines import TableEmbedder, TableRoomScorer
from semsearch.cli import METHODS, run_bench
from semsearch.env_graph import GroundTruth
from semsearch.metrics import (
    EpisodeRow,
    build_report,
    episode_row,
    path_efficiency,
    spl,
    spl_term,
    success_rate,
)
from semsearch.planner import PlanStep, SearchPlan
from semsearch.search_sim import (
    EpisodeResult,
    Outcome,
    PerceptionModel,
    SimulationParams,
    run_episode,
)

import oracles
from conftest import make_env, random_connected_graph
from oracles import simple_path_distance


def episode(outcome, traversed, ideal):
    return EpisodeResult(outcome=outcome, traversed_length=traversed,
                         ideal_length=ideal, steps=tuple())


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
        assert path_efficiency(found(10.0, 0.0)) is None
        assert path_efficiency(episode(Outcome.EXHAUSTED, 0.0, 5.0)) is None


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
        return [episode_row(i, "s", f"obj-{i}", "drill", 0, r)
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


CSV_WRITERS = ["write_episode_csv", "write_summary_csv", "write_steps_csv", "write_long_csv"]


def csv_bytes(module, reports, tmp_path) -> dict[str, bytes]:
    """The four files as `module`'s writers write `reports`."""
    out = {}
    for name in CSV_WRITERS:
        path = tmp_path / f"{module.__name__}-{name}.csv"
        getattr(module, name)(reports, path)
        out[name] = path.read_bytes()
    return out


class TestCsvWriters:
    """The format-once writers against the `csv.writer` reference in oracles."""

    @pytest.mark.parametrize("tpr, fpr", [(1, 0), (0.8, 0.05)])
    def test_farm_bench_bytes_match_the_reference(self, farm_cfg, tmp_path, tpr, fpr):
        reports = run_bench(farm_cfg, list(METHODS), 300, 5,
                            affinity_scorer=TableScorer(farm_cfg.scorer.table),
                            room_scorer=TableRoomScorer(farm_cfg.room_scores),
                            embedder=TableEmbedder(farm_cfg.embeddings),
                            params=SimulationParams(PerceptionModel(tpr, fpr),
                                                    seed=farm_cfg.params.seed))
        assert csv_bytes(metrics, reports, tmp_path) == csv_bytes(oracles, reports, tmp_path)

    def test_edge_cases_match_the_reference(self, tmp_path):
        near = PlanStep('bin,"a"', 0.1, 2.5, 0.4, 0.4, 2.5)
        far = PlanStep("w2", 0.2, -0.0, 0.6, 1.0, 2.5)
        twin = PlanStep("w2", 0.2, 0.0, 0.6, 1.0, 2.5)  # equals `far`, but its leg prints 0
        full = (near, far)  # one full-plan trace, shared by episodes that end apart
        head = 'start,"1"', 'host "h",x', 'red, "ripe" apple'
        rows = [
            EpisodeRow(0, *head, 10, "found", 2.5, 2.5, 1.0, 1.0, trace=full, detected=head[1]),
            EpisodeRow(1, *head, 11, "lost", 2.5, 2.5, 0.0, 1.0, trace=full),
            EpisodeRow(2, *head, 12, "lost", 2.5, 2.5, -0.0, 1.0, trace=full),
            EpisodeRow(3, *head, 13, "found_false", 0.0, -0.0, 0.0, None, trace=(near, twin),
                       detected='obj,"x"'),
            EpisodeRow(4, *head, 14, error='PlannerError: 17 scored, max "16"'),
            EpisodeRow(5, *head, 15, error="line one\nline two"),
            EpisodeRow(6, *head, 16, error="x}x\r"),
            EpisodeRow(7, *head, 17, error="a\r\nb,c"),
        ]
        reports = [build_report('losae,"v2"', rows[:4]), build_report("room_search", rows[4:])]
        written = csv_bytes(metrics, reports, tmp_path)
        assert written == csv_bytes(oracles, reports, tmp_path)
        episodes = list(csv.DictReader(io.StringIO(written["write_episode_csv"].decode())))
        assert [ep["spl_term"] for ep in episodes[1:4]] == ["0", "-0", "0"]
        assert episodes[3]["ideal_m"] == "-0"
        assert episodes[5]["error"] == "line one\nline two"
        steps = list(csv.DictReader(io.StringIO(written["write_steps_csv"].decode())))
        assert [s["leg_m"] for s in steps] == ["2.5", "-0"] * 3 + ["2.5", "0"]

    def test_field_matches_csv_writer(self):
        """20,000 seeded random fields, in rows of 2-6, through `_field` and `csv.writer`."""
        rng = random.Random(25)
        alphabet = ["a", "Z", "7", ",", '"', "\r", "\n", " ", "\t", "'", "''", "}", "é"]
        rows, fields = [], 0
        while fields < 20_000:
            rows.append(["".join(rng.choices(alphabet, k=rng.randint(0, 8)))
                         for _ in range(rng.randint(2, 6))])
            fields += len(rows[-1])
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert "".join(",".join(map(metrics._field, row)) + "\n" for row in rows) \
            == expected.getvalue()
