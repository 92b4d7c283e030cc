import json
import math
import random
import re
import time

import pytest

from semsearch.env_graph import (
    ScenarioParseError,
    ScenarioValidationError,
    UnknownWaypointError,
    parse_scenario,
    serialize_scenario,
)

from conftest import FARM_SCENARIO, make_env, random_connected_graph
from oracles import all_pairs_floyd_warshall, simple_path_distance


def minimal_doc(**overrides):
    doc = {
        "waypoints": [{"id": "w1", "x": 0.0, "y": 0.0}, {"id": "w2", "x": 3.0, "y": 0.0}],
        "edges": [{"a": "w1", "b": "w2", "length": 3.0}],
        "objects": [{"instance_id": "obj-1", "label": "hammer", "waypoint": "w1"}],
        "ground_truth": {"target_label": "drill", "host_object": "obj-1"},
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_single_edge_graph(self):
        cfg = parse_scenario(json.dumps(minimal_doc()))
        assert cfg.env.distance("w1", "w2") == 3.0
        assert cfg.truth.target_label == "drill"
        assert cfg.params.seed == 0

    def test_unknown_waypoint_reference_names_entity(self):
        doc = minimal_doc(edges=[{"a": "w1", "b": "w9", "length": 1.0}])
        with pytest.raises(ScenarioValidationError, match="w9"):
            parse_scenario(json.dumps(doc))

    def test_farm_scenario(self):
        cfg = parse_scenario(FARM_SCENARIO.read_text())
        assert len(cfg.env.waypoints) == 20
        assert set(cfg.env.rooms) == {"tool storage", "water station", "wash station", "harvest station"}
        assert cfg.truth.host_object in cfg.env.objects

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioParseError, match="bogus"):
            parse_scenario(json.dumps(minimal_doc(bogus=1)))

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["waypoints"][0]["z"] = 4.0
        with pytest.raises(ScenarioParseError, match="z"):
            parse_scenario(json.dumps(doc))
        doc = minimal_doc(perception={"true_positive_rate": 1.0, "false_positive_rate": 0.0,
                                      "confidence_threshold": 0.8})
        with pytest.raises(ScenarioParseError, match="confidence_threshold"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("{not json")

    def test_duplicate_waypoint_id(self):
        doc = minimal_doc()
        doc["waypoints"].append({"id": "w1", "x": 1.0, "y": 1.0})
        with pytest.raises(ScenarioValidationError, match="w1"):
            parse_scenario(json.dumps(doc))

    def test_nonpositive_edge_length(self):
        doc = minimal_doc(edges=[{"a": "w1", "b": "w2", "length": 0.0}])
        with pytest.raises(ScenarioValidationError, match="w1"):
            parse_scenario(json.dumps(doc))

    def test_self_loop_rejected(self):
        doc = minimal_doc(edges=[{"a": "w1", "b": "w1", "length": 1.0},
                                 {"a": "w1", "b": "w2", "length": 3.0}])
        with pytest.raises(ScenarioValidationError, match="self-loop"):
            parse_scenario(json.dumps(doc))

    def test_disconnected_graph_rejected(self):
        doc = minimal_doc()
        doc["waypoints"].append({"id": "w3", "x": 9.0, "y": 9.0})
        with pytest.raises(ScenarioValidationError, match="w3"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_instance_id(self):
        doc = minimal_doc()
        doc["objects"].append({"instance_id": "obj-1", "label": "rake", "waypoint": "w2"})
        with pytest.raises(ScenarioValidationError, match="obj-1"):
            parse_scenario(json.dumps(doc))

    def test_unknown_host_object(self):
        doc = minimal_doc(ground_truth={"target_label": "drill", "host_object": "obj-9"})
        with pytest.raises(ScenarioValidationError, match="obj-9"):
            parse_scenario(json.dumps(doc))

    def test_room_with_unknown_waypoint(self):
        doc = minimal_doc(rooms=[{"name": "shed", "waypoints": ["w1", "w7"]}])
        with pytest.raises(ScenarioValidationError, match="w7"):
            parse_scenario(json.dumps(doc))

    def test_edge_length_defaults_to_euclidean(self):
        doc = minimal_doc(edges=[{"a": "w1", "b": "w2"}])
        env = parse_scenario(json.dumps(doc)).env
        assert env.distance("w1", "w2") == pytest.approx(3.0)

    def test_explicit_length_overrides_euclidean(self):
        doc = minimal_doc(edges=[{"a": "w1", "b": "w2", "length": 7.5}])
        env = parse_scenario(json.dumps(doc)).env
        assert env.distance("w1", "w2") == 7.5

    @pytest.mark.parametrize("overrides, section", [
        pytest.param({"waypoints": [1]}, "waypoints entry", id="waypoints"),
        pytest.param({"edges": 5}, "edges", id="edges"),
        pytest.param({"objects": None}, "objects", id="objects"),
        pytest.param({"rooms": [{"name": "shed", "waypoints": "w1"}]}, "'shed' waypoints",
                     id="room-waypoints"),
        pytest.param({"scorer": {"kind": "table", "table": [["hammer|drill", 0.5]]}},
                     "scorer table", id="scorer-table"),
        pytest.param({"room_scores": [1, 2]}, "room_scores", id="room_scores"),
        pytest.param({"embeddings": {"a": 5}}, r"embeddings\['a'\]", id="embedding-vector"),
        pytest.param({"embeddings": [1]}, "embeddings", id="embeddings"),
    ])
    def test_section_of_wrong_shape_names_it(self, overrides, section):
        with pytest.raises(ScenarioParseError, match=section):
            parse_scenario(json.dumps(minimal_doc(**overrides)))

    @pytest.mark.parametrize("path, value, error, field", [
        pytest.param(("waypoints", 0, "id"), None, ScenarioParseError, "waypoint id",
                     id="waypoint-id-null"),
        pytest.param(("waypoints", 0, "id"), 5, ScenarioParseError, "waypoint id",
                     id="waypoint-id-number"),
        pytest.param(("edges", 0, "b"), 2, ScenarioParseError, "edge endpoint 'b'",
                     id="edge-endpoint"),
        pytest.param(("objects", 0, "instance_id"), ["obj-1"], ScenarioParseError,
                     "objects entry instance_id", id="instance-id"),
        pytest.param(("objects", 0, "label"), 7, ScenarioParseError, "objects entry label",
                     id="label"),
        pytest.param(("objects", 0, "waypoint"), 1, ScenarioParseError,
                     "objects entry waypoint", id="object-waypoint"),
        pytest.param(("rooms", 0, "name"), 3, ScenarioParseError, "rooms entry name",
                     id="room-name"),
        pytest.param(("rooms", 0, "waypoints", 0), 1, ScenarioParseError,
                     "rooms entry 'shed' waypoint", id="room-member"),
        pytest.param(("ground_truth", "target_label"), 7, ScenarioParseError,
                     "ground_truth target_label", id="target-label"),
        pytest.param(("ground_truth", "host_object"), None, ScenarioParseError,
                     "ground_truth host_object", id="host-object"),
        pytest.param(("scorer",), {"kind": "table", "table": {"hammer|drill": "x"}},
                     ScenarioParseError, "scorer table['hammer|drill']", id="table-string"),
        pytest.param(("scorer",), {"kind": "table", "table": {"hammer|drill": True}},
                     ScenarioParseError, "scorer table['hammer|drill']", id="table-bool"),
        pytest.param(("scorer",), {"kind": "table", "table": {"hammer": 0.5}},
                     ScenarioParseError, "scorer table key 'hammer'", id="table-key"),
        pytest.param(("embeddings",), {"hammer": [1.0, 0.0], "drill": [0.0, 1.0, 0.5]},
                     ScenarioValidationError, "'drill' has length 3", id="embedding-length"),
    ])
    def test_field_of_wrong_type_names_it(self, path, value, error, field):
        doc = minimal_doc(rooms=[{"name": "shed", "waypoints": ["w1"]}])
        *parents, last = path
        node = doc
        for step in parents:
            node = node[step]
        node[last] = value
        with pytest.raises(error, match=re.escape(field)):
            parse_scenario(json.dumps(doc))

    def test_bad_seed_rejected(self):
        with pytest.raises(ScenarioParseError, match="seed"):
            parse_scenario(json.dumps(minimal_doc(seed=-3)))

    def test_perception_rates_validated(self):
        doc = minimal_doc(perception={"true_positive_rate": 1.4, "false_positive_rate": 0.0})
        with pytest.raises(ScenarioValidationError):
            parse_scenario(json.dumps(doc))


class TestDistance:
    def test_identity(self, line_env):
        assert line_env.distance("w2", "w2") == 0.0

    def test_path_graph(self, line_env):
        assert line_env.distance("w1", "w3") == 5.0

    def test_two_hop_beats_direct_edge(self):
        # direct edge costs 10, going around costs 4 + 4
        env = make_env(
            [("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
            [("a", "c", 10.0), ("a", "b", 4.0), ("b", "c", 4.0)],
        )
        expected = simple_path_distance([("a", "c", 10.0), ("a", "b", 4.0), ("b", "c", 4.0)], "a", "c")
        assert expected == 8.0
        assert env.distance("a", "c") == expected

    def test_unknown_waypoint(self, line_env):
        with pytest.raises(UnknownWaypointError, match="w9"):
            line_env.distance("w1", "w9")

    def test_unknown_first_waypoint(self, line_env):
        with pytest.raises(UnknownWaypointError, match="w0"):
            line_env.distance("w0", "w1")

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(25):
            waypoints, edges = random_connected_graph(rng)
            env = make_env(waypoints, edges)
            ids = env.waypoint_ids()
            a, b = rng.choice(ids), rng.choice(ids)
            assert env.distance(a, b) == pytest.approx(
                simple_path_distance(edges, a, b), abs=1e-9)

    def test_all_pairs_match_floyd_warshall(self):
        rng = random.Random(4104)
        for _ in range(20):
            waypoints, edges = random_connected_graph(rng, max_nodes=120)
            env = make_env(waypoints, edges)
            expected = all_pairs_floyd_warshall([w[0] for w in waypoints], edges)
            ids = env.waypoint_ids()
            for a in ids:
                for b in ids:
                    assert abs(env.distance(a, b) - expected[a][b]) <= 1e-9
                    assert env.distance(a, b) == env.distance(b, a)
            diameter = max(d for row in expected.values() for d in row.values())
            assert abs(env.max_pairwise_distance - diameter) <= 1e-9

    def test_grid_of_400_waypoints_loads_quickly(self):
        # 20 x 20 grid with unit edges: a sparse map the size of a large farm
        ids = [[f"g{r:02d}-{c:02d}" for c in range(20)] for r in range(20)]
        waypoints = [(ids[r][c], c, r) for r in range(20) for c in range(20)]
        edges = [(ids[r][c], ids[r][c + 1], 1.0) for r in range(20) for c in range(19)]
        edges += [(ids[r][c], ids[r + 1][c], 1.0) for r in range(19) for c in range(20)]
        started = time.perf_counter()
        env = make_env(waypoints, edges)
        elapsed = time.perf_counter() - started
        assert env.distance(ids[0][0], ids[19][19]) == 38.0
        assert env.max_pairwise_distance == 38.0
        assert elapsed < 2.0

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(99)
        waypoints, edges = random_connected_graph(rng, max_nodes=10)
        env = make_env(waypoints, edges)
        ids = env.waypoint_ids()
        for a in ids:
            for b in ids:
                assert env.distance(a, b) == env.distance(b, a)
                for c in ids:
                    assert env.distance(a, b) <= env.distance(a, c) + env.distance(c, b) + 1e-9


class TestObjectsAt:
    def test_sorted_by_instance_id(self):
        env = make_env(
            [("w1", 0, 0)],
            [],
            [("obj-z", "hammer", "w1"), ("obj-a", "drill bit", "w1")],
        )
        assert [o.instance_id for o in env.objects_at("w1")] == ["obj-a", "obj-z"]

    def test_empty_waypoint(self, line_env):
        assert line_env.objects_at("w2") == ()

    def test_unknown_waypoint(self, line_env):
        with pytest.raises(UnknownWaypointError, match="nope"):
            line_env.objects_at("nope")

    def test_farm_round_trip_against_document(self, farm_cfg, farm_doc):
        declared = {}
        for obj in farm_doc["objects"]:
            declared.setdefault(obj["waypoint"], []).append(obj["instance_id"])
        for waypoint, ids in declared.items():
            assert [o.instance_id for o in farm_cfg.env.objects_at(waypoint)] == sorted(ids)


class TestRoundTrip:
    def test_serialize_then_reload_is_identical(self, farm_cfg):
        text = serialize_scenario(farm_cfg)
        cfg2 = parse_scenario(text)
        assert cfg2.env == farm_cfg.env
        assert cfg2.truth == farm_cfg.truth
        assert cfg2.params == farm_cfg.params
        # and the canonical form is a fixed point
        assert serialize_scenario(cfg2) == text

    def test_random_env_round_trip(self):
        rng = random.Random(5)
        waypoints, edges = random_connected_graph(rng)
        env = make_env(waypoints, edges, [("obj-1", "hoe", waypoints[0][0])])
        doc = env.to_document()
        doc["ground_truth"] = {"target_label": "drill", "host_object": "obj-1"}
        env2 = parse_scenario(json.dumps(doc)).env
        assert env2 == env
