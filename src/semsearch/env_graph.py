"""Environment data model: waypoint graph, seen objects, rooms, ground truth.

Scenario documents are JSON with a closed schema; unknown keys are rejected so
hand-authored files fail loudly instead of silently dropping a typo. All-pairs
shortest-path distances are computed once at load into a dense table indexed
by sorted waypoint id, with one heap Dijkstra per source: O(V·E·log V) time
and O(V²) memory, which suits sparse maps of hundreds of waypoints. Lookups
are O(1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .affinity import TableScorer, normalize_label
from .baselines import EmbeddingError, TableEmbedder, TableRoomScorer
from .search_sim import PerceptionModel, SimulationParams


class ScenarioError(Exception):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The document is not valid JSON or a field has the wrong shape."""


class ScenarioValidationError(ScenarioError):
    """The document parsed but violates an environment invariant."""


class UnknownWaypointError(ScenarioError):
    pass


@dataclass(frozen=True)
class Waypoint:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    length: float


@dataclass(frozen=True)
class SeenObject:
    instance_id: str
    label: str
    waypoint: str


@dataclass(frozen=True)
class Room:
    name: str
    waypoints: tuple[str, ...]


@dataclass(frozen=True)
class GroundTruth:
    target_label: str
    host_object: str


@dataclass(frozen=True)
class ScorerSpec:
    kind: str  # "llm" | "table"
    table: dict | None = None


@dataclass
class ScenarioConfig:
    """Everything a run needs, as declared by one scenario document."""

    env: "Environment"
    truth: GroundTruth
    params: SimulationParams
    scorer: ScorerSpec | None = None
    room_scores: dict | None = None
    embeddings: dict[str, tuple[float, ...]] | None = None


class Environment:
    """Immutable after construction; safe to share across concurrent episodes."""

    def __init__(self, waypoints: list[Waypoint], edges: list[Edge],
                 objects: list[SeenObject], rooms: list[Room]):
        self.waypoints: dict[str, Waypoint] = {}
        for wp in waypoints:
            if wp.id in self.waypoints:
                raise ScenarioValidationError(f"duplicate waypoint id {wp.id!r}")
            if not wp.id:
                raise ScenarioValidationError("waypoint with empty id")
            if not (math.isfinite(wp.x) and math.isfinite(wp.y)):
                raise ScenarioValidationError(f"waypoint {wp.id!r} has non-finite coordinates")
            self.waypoints[wp.id] = wp
        if not self.waypoints:
            raise ScenarioValidationError("environment has no waypoints")

        self.edges: list[Edge] = []
        seen_pairs: set[frozenset[str]] = set()
        for edge in edges:
            for endpoint in (edge.a, edge.b):
                if endpoint not in self.waypoints:
                    raise ScenarioValidationError(
                        f"edge ({edge.a!r}, {edge.b!r}) references unknown waypoint {endpoint!r}")
            if edge.a == edge.b:
                raise ScenarioValidationError(f"self-loop edge at waypoint {edge.a!r}")
            pair = frozenset((edge.a, edge.b))
            if pair in seen_pairs:
                raise ScenarioValidationError(f"duplicate edge between {edge.a!r} and {edge.b!r}")
            seen_pairs.add(pair)
            if not (edge.length > 0 and math.isfinite(edge.length)):
                raise ScenarioValidationError(
                    f"edge ({edge.a!r}, {edge.b!r}) has nonpositive length {edge.length}")
            self.edges.append(edge)

        self.objects: dict[str, SeenObject] = {}
        for obj in objects:
            if obj.instance_id in self.objects:
                raise ScenarioValidationError(f"duplicate object instance_id {obj.instance_id!r}")
            if not obj.label.strip():
                raise ScenarioValidationError(f"object {obj.instance_id!r} has an empty label")
            if obj.waypoint not in self.waypoints:
                raise ScenarioValidationError(
                    f"object {obj.instance_id!r} references unknown waypoint {obj.waypoint!r}")
            self.objects[obj.instance_id] = obj

        self.rooms: dict[str, Room] = {}
        names: dict[str, str] = {}  # normalized room name -> name as written
        for room in rooms:
            key = normalize_label(room.name)
            if key in names:
                raise ScenarioValidationError(
                    f"room names {names[key]!r} and {room.name!r} name the same room")
            names[key] = room.name
            if not room.waypoints:
                raise ScenarioValidationError(f"room {room.name!r} has no waypoints")
            for i, wid in enumerate(room.waypoints):
                if wid not in self.waypoints:
                    raise ScenarioValidationError(
                        f"room {room.name!r} references unknown waypoint {wid!r}")
                if wid in room.waypoints[:i]:
                    raise ScenarioValidationError(
                        f"room {room.name!r} lists waypoint {wid!r} more than once")
            self.rooms[room.name] = room

        ids = sorted(self.waypoints)
        self._index: dict[str, int] = {wid: i for i, wid in enumerate(ids)}
        self._dist = self._all_pairs_shortest_paths(ids)
        self.max_pairwise_distance = max(map(max, self._dist))
        by_wp: dict[str, list[SeenObject]] = {wid: [] for wid in self.waypoints}
        for obj in self.objects.values():
            by_wp[obj.waypoint].append(obj)
        self._objects_by_waypoint = {
            wid: tuple(sorted(objs, key=lambda o: o.instance_id)) for wid, objs in by_wp.items()
        }

    def _all_pairs_shortest_paths(self, ids: list[str]) -> list[list[float]]:
        """Dense distance table, one heap Dijkstra per source over integer adjacency.

        The first source's row doubles as the connectivity check. The upper
        triangle is mirrored into the lower one so distance(a, b) and
        distance(b, a) are the same float, whichever way Dijkstra summed them.
        """
        n = len(ids)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for edge in self.edges:
            i, j = self._index[edge.a], self._index[edge.b]
            adj[i].append((j, edge.length))
            adj[j].append((i, edge.length))
        rows: list[list[float]] = []
        for source in range(n):
            row = [math.inf] * n
            row[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heappop(heap)
                if d > row[u]:
                    continue
                for v, length in adj[u]:
                    alt = d + length
                    if alt < row[v]:
                        row[v] = alt
                        heappush(heap, (alt, v))
            if not rows and math.inf in row:
                raise ScenarioValidationError(
                    f"graph is disconnected: waypoint {ids[row.index(math.inf)]!r} "
                    f"is unreachable from {ids[0]!r}")
            rows.append(row)
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                rows[j][i] = row[j]
        return rows

    # -- queries -------------------------------------------------------------

    def _require(self, waypoint_id: str) -> None:
        if waypoint_id not in self.waypoints:
            raise UnknownWaypointError(f"unknown waypoint {waypoint_id!r}")

    def distance(self, a: str, b: str) -> float:
        """Shortest-path (geodesic) distance through the graph, in meters."""
        try:
            return self._dist[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise UnknownWaypointError(f"unknown waypoint {exc.args[0]!r}") from None

    def objects_at(self, waypoint_id: str) -> tuple[SeenObject, ...]:
        """The waypoint's objects in instance_id order."""
        self._require(waypoint_id)
        return self._objects_by_waypoint[waypoint_id]

    def waypoint_ids(self) -> list[str]:
        return sorted(self.waypoints)

    def instance_ids(self) -> list[str]:
        return sorted(self.objects)

    def labels(self) -> list[str]:
        return sorted({normalize_label(o.label) for o in self.objects.values()})

    def __repr__(self) -> str:
        return (f"Environment(waypoints={len(self.waypoints)}, edges={len(self.edges)}, "
                f"objects={len(self.objects)}, rooms={len(self.rooms)})")


# -- document parsing ---------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "waypoints", "edges", "objects", "rooms", "ground_truth",
    "perception", "scorer", "room_scores", "embeddings", "seed",
}


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{where} must be a JSON array, got {type(value).__name__}")
    return value


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where} must be a JSON string, got {value!r}")
    return value


def _require_keys(section, allowed: set[str], required: set[str], where: str) -> None:
    _as_object(section, where)
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ScenarioParseError(f"unknown key {unknown[0]!r} in {where}")
    missing = sorted(required - set(section))
    if missing:
        raise ScenarioParseError(f"missing key {missing[0]!r} in {where}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _checked(section: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), with the rule it breaks reported against `section`."""
    try:
        return cls(*args, **kwargs)
    except (ValueError, EmbeddingError) as exc:
        raise ScenarioValidationError(f"{section}: {exc}") from exc


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate one scenario document; its score tables and vectors
    are checked by the classes that read them."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    _require_keys(doc, _TOP_LEVEL_KEYS, {"waypoints", "objects", "ground_truth"}, "scenario")

    waypoints = []
    for item in _as_list(doc.get("waypoints", []), "waypoints"):
        _require_keys(item, {"id", "x", "y"}, {"id", "x", "y"}, "waypoints entry")
        waypoints.append(Waypoint(_as_str(item["id"], "waypoint id"),
                                  _as_number(item["x"], "waypoint x"),
                                  _as_number(item["y"], "waypoint y")))
    positions = {wp.id: (wp.x, wp.y) for wp in waypoints}

    edges = []
    for item in _as_list(doc.get("edges", []), "edges"):
        _require_keys(item, {"a", "b", "length"}, {"a", "b"}, "edges entry")
        a, b = (_as_str(item[end], f"edge endpoint {end!r}") for end in ("a", "b"))
        if "length" in item:
            length = _as_number(item["length"], "edge length")
        else:
            if a not in positions or b not in positions:
                missing = a if a not in positions else b
                raise ScenarioValidationError(
                    f"edge ({a!r}, {b!r}) references unknown waypoint {missing!r}")
            length = math.dist(positions[a], positions[b])
        edges.append(Edge(a, b, length))

    objects = []
    for item in _as_list(doc.get("objects", []), "objects"):
        _require_keys(item, {"instance_id", "label", "waypoint"},
                      {"instance_id", "label", "waypoint"}, "objects entry")
        objects.append(SeenObject(*(_as_str(item[key], f"objects entry {key}")
                                    for key in ("instance_id", "label", "waypoint"))))

    rooms = []
    for item in _as_list(doc.get("rooms", []), "rooms"):
        _require_keys(item, {"name", "waypoints"}, {"name", "waypoints"}, "rooms entry")
        name = _as_str(item["name"], "rooms entry name")
        members = _as_list(item["waypoints"], f"rooms entry {name!r} waypoints")
        rooms.append(Room(name, tuple(_as_str(w, f"rooms entry {name!r} waypoint")
                                      for w in members)))

    env = Environment(waypoints, edges, objects, rooms)

    gt = doc["ground_truth"]
    _require_keys(gt, {"target_label", "host_object"}, {"target_label", "host_object"}, "ground_truth")
    truth = GroundTruth(*(_as_str(gt[key], f"ground_truth {key}")
                          for key in ("target_label", "host_object")))
    if not truth.target_label.strip():
        raise ScenarioValidationError("ground_truth target_label is empty")
    if truth.host_object not in env.objects:
        raise ScenarioValidationError(
            f"ground_truth host_object {truth.host_object!r} is not a known object instance")

    perception = PerceptionModel()
    if "perception" in doc:
        p = doc["perception"]
        _require_keys(p, {"true_positive_rate", "false_positive_rate"},
                      {"true_positive_rate", "false_positive_rate"}, "perception")
        perception = _checked(
            "perception", PerceptionModel,
            true_positive_rate=_as_number(p["true_positive_rate"], "true_positive_rate"),
            false_positive_rate=_as_number(p["false_positive_rate"], "false_positive_rate"))

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioParseError(f"seed must be an unsigned integer, got {seed!r}")
    params = SimulationParams(perception=perception, seed=seed)

    scorer = None
    if "scorer" in doc:
        s = doc["scorer"]
        _require_keys(s, {"kind", "table"}, {"kind"}, "scorer")
        kind = _as_str(s["kind"], "scorer kind")
        if kind not in ("llm", "table"):
            raise ScenarioValidationError(f"scorer kind must be 'llm' or 'table', got {kind!r}")
        table = s.get("table")
        if table is not None:
            _as_object(table, "scorer table")
        if kind == "table" and not table:
            raise ScenarioValidationError("scorer kind 'table' requires a 'table' section")
        scorer = ScorerSpec(kind=kind, table=dict(table) if table else None)

    room_scores = None
    if "room_scores" in doc:
        room_scores = dict(_as_object(doc["room_scores"], "room_scores"))
    for section, table, cls in (("scorer table", scorer and scorer.table, TableScorer),
                                ("room_scores", room_scores, TableRoomScorer)):
        if table:
            for key, value in table.items():
                if key != "default" and "|" not in key:
                    raise ScenarioParseError(f"{section} key {key!r} is not 'name|target'")
                _as_number(value, f"{section}[{key!r}]")
            _checked(section, cls, table)

    embeddings = None
    if "embeddings" in doc:
        vectors = {}
        for label, vector in _as_object(doc["embeddings"], "embeddings").items():
            where = f"embeddings[{label!r}]"
            vectors[label] = tuple(_as_number(v, where) for v in _as_list(vector, where))
        embeddings = _checked("embeddings", TableEmbedder, vectors).vectors

    return ScenarioConfig(env=env, truth=truth, params=params, scorer=scorer,
                          room_scores=room_scores, embeddings=embeddings)


def load_scenario_path(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
