"""Comparison policies: Room Search plus the two argmax ablations.

Room Search scores named rooms (LLM or table), orders them with the same
distance/score cost machinery as the main planner, and sweeps each room's
object-bearing waypoints in word-embedding similarity order, dropping a room
from the belief once exhausted. The ablations go straight to the single
highest-probability object or waypoint and ignore distance entirely.

All three produce SearchPlan objects the episode simulator runs unchanged.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Protocol

from .affinity import (AffinityDistribution, TableScorer, normalize_label,
                       normalized_distribution, split_across_instances)
from .planner import PlannerConfig, SearchPlan, WaypointScores, make_plan, plan_optimal

if TYPE_CHECKING:
    from .llm_gateway import LLMGateway


class BaselineError(Exception):
    pass


class RoomScoreParseError(BaselineError):
    pass


class MissingRoomScoreError(BaselineError):
    pass


class EmbeddingError(BaselineError):
    pass


# -- room scoring ---------------------------------------------------------------

class RoomScorer(Protocol):
    def score_rooms(self, rooms: list[str], target_label: str) -> dict[str, float]: ...


class TableRoomScorer(TableScorer):
    """Room scores from a declared table keyed 'room|target', with no upper cap."""

    KEY = "room|target"
    CAP = math.inf
    MISSING = MissingRoomScoreError

    def score_rooms(self, rooms: list[str], target_label: str) -> dict[str, float]:
        return {room: self.score(room, target_label) for room in rooms}


ROOM_SYSTEM_PROMPT = (
    "You are an expert object location reasoning robot. You rate how likely each "
    "named room is to contain a target object."
)

ROOM_USER_TEMPLATE = (
    "Target object: {target}. Rooms: {rooms}. Respond with exactly one line per room, "
    "in the format <room>: <score>, where <score> is an integer from 0 to 100. "
    "Output nothing else."
)

_ROOM_LINE = re.compile(r"^\s*(.+?)\s*[:=]\s*(\d{1,3})\s*$")


class LLMRoomScorer:
    """Elicits an integer 0-100 per room in one prompt; reprompts once on a bad reply."""

    def __init__(self, gateway: LLMGateway):
        self.gateway = gateway

    def _ask(self, user_text: str) -> str:
        from .llm_gateway import CompletionRequest

        result = self.gateway.complete(CompletionRequest(
            system_text=ROOM_SYSTEM_PROMPT,
            user_text=user_text,
            model=self.gateway.config.model,
            max_tokens=256,
        ))
        return result.answer_text

    @staticmethod
    def _parse(reply: str, rooms: list[str]) -> dict[str, float] | None:
        wanted = {normalize_label(room): room for room in rooms}
        found: dict[str, float] = {}
        for line in reply.splitlines():
            match = _ROOM_LINE.match(line)
            if not match:
                continue
            name, score = normalize_label(match.group(1)), int(match.group(2))
            if name in wanted and score <= 100:
                found[wanted[name]] = float(score)
        if len(found) != len(rooms):
            return None
        return found

    def score_rooms(self, rooms: list[str], target_label: str) -> dict[str, float]:
        user = ROOM_USER_TEMPLATE.format(target=target_label, rooms="; ".join(rooms))
        parsed = self._parse(self._ask(user), rooms)
        if parsed is None:
            retry = user + " Your previous reply could not be parsed. Follow the format exactly."
            parsed = self._parse(self._ask(retry), rooms)
        if parsed is None:
            raise RoomScoreParseError(
                f"could not parse room scores for {rooms} after one reprompt")
        return parsed


def room_scores(scorer: RoomScorer, rooms: list[str], target_label: str) -> AffinityDistribution:
    """Normalized probability per room that the target is inside it, in `rooms` order."""
    if not rooms:
        raise ValueError("rooms is empty")
    raw = scorer.score_rooms(list(rooms), target_label)
    return normalized_distribution({room: raw[room] for room in rooms}, target_label)


# -- embedding similarity ---------------------------------------------------------

class TableEmbedder:
    """Finite, nonzero vectors of one length, keyed by normalized label in `vectors`;
    two labels equal after normalize_label are an error. A vector whose squared
    norm underflows to 0 or overflows to infinity is rejected, so `cosine` of
    any two declared vectors is a finite number."""

    def __init__(self, vectors: dict[str, tuple[float, ...]]):
        self.vectors: dict[str, tuple[float, ...]] = {}
        written: dict[str, str] = {}  # normalized label -> label as written
        first = None  # (label, length) of the first vector
        for label, vector in vectors.items():
            key = normalize_label(label)
            if key in written:
                raise EmbeddingError(
                    f"embedding labels {written[key]!r} and {label!r} name the same label")
            vec = tuple(float(x) for x in vector)
            if not vec or all(x == 0.0 for x in vec):
                raise EmbeddingError(f"embedding vector for {label!r} is empty or all zero")
            if not all(map(math.isfinite, vec)):
                raise EmbeddingError(f"embedding vector for {label!r} has a non-finite component")
            if not 0.0 < math.fsum(x * x for x in vec) < math.inf:
                raise EmbeddingError(f"embedding vector for {label!r} has a norm too small "
                                     "or too large to compute")
            first = first or (label, len(vec))
            if len(vec) != first[1]:
                raise EmbeddingError(f"embedding vector for {label!r} has length {len(vec)}, "
                                     f"but the one for {first[0]!r} has length {first[1]}")
            written[key] = label
            self.vectors[key] = vec

    def embed(self, text: str) -> tuple[float, ...]:
        key = normalize_label(text)
        if key not in self.vectors:
            raise EmbeddingError(f"no declared embedding vector for {text!r}")
        return self.vectors[key]


def cosine(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Cosine similarity of two vectors whose norms are both positive and finite,
    as `TableEmbedder` guarantees for every vector it returns."""
    if len(a) != len(b):
        raise EmbeddingError(f"vector length mismatch: {len(a)} vs {len(b)}")
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return dot / (na * nb)


def similarity_rank(embedder: TableEmbedder, labels: list[str],
                    target_label: str) -> dict[str, float]:
    """Cosine similarity of each normalized label to the target, in rank order:
    highest first, ties lexicographic."""
    if not labels:
        raise ValueError("labels is empty")
    target_vec = embedder.embed(target_label)
    sims = {}
    for label in labels:
        key = normalize_label(label)
        if key not in sims:
            sims[key] = cosine(embedder.embed(label), target_vec)
    return dict(sorted(sims.items(), key=lambda item: (-item[1], item[0])))


# -- plans ------------------------------------------------------------------------

def _room_representative(env, room) -> str:
    """The room waypoint nearest its centroid; ties go to the smaller id."""
    pts = [env.waypoints[w] for w in room.waypoints]
    cx = math.fsum(p.x for p in pts) / len(pts)
    cy = math.fsum(p.y for p in pts) / len(pts)
    return min(sorted(room.waypoints), key=lambda w: (math.dist((env.waypoints[w].x, env.waypoints[w].y), (cx, cy)), w))


def _room_visit_order(env, room, ranking: dict[str, float]) -> list[str]:
    """Object-bearing waypoints of the room, best hosted similarity first;
    `ranking` holds every hosted label."""
    candidates = []
    for wid in sorted(room.waypoints):
        hosted = env.objects_at(wid)
        if not hosted:
            continue
        best = max(ranking[normalize_label(o.label)] for o in hosted)
        candidates.append((-best, wid))
    return [wid for _, wid in sorted(candidates)]


def plan_room_search(env, room_dist: AffinityDistribution, start: str,
                     config: PlannerConfig | None = None, *,
                     ranking: dict[str, float]) -> SearchPlan:
    """Visit rooms in cost order, sweeping each room by similarity.

    `ranking` maps every normalized label the environment hosts to its
    similarity to the target, as `similarity_rank` returns it.

    After a room is exhausted it is removed from the belief and the remaining
    room probabilities are renormalized before choosing the next room, so each
    room is entered at most once. Consumed probability is ledgered against the
    original (unrenormalized) room masses.

    A room's sweep is its object-bearing waypoints in similarity order, or its
    representative waypoint when none hosts an object. The plan appends the
    sweep waypoints not yet visited and splits the room's mass evenly among
    them. When rooms overlap and every sweep waypoint was already visited for
    an earlier room, the mass goes to the sweep waypoint visited last.
    """
    config = config or PlannerConfig()
    if not room_dist.entries:
        raise BaselineError("room distribution is empty")
    for room in room_dist.entries:
        if room not in env.rooms:
            raise BaselineError(f"room {room!r} is not declared in the environment")

    reps = {room: _room_representative(env, env.rooms[room]) for room in room_dist.entries}
    remaining = dict(room_dist.entries)
    position = start
    sequence: list[str] = []
    step_scores: dict[str, float] = {}

    while remaining:
        if len(remaining) == 1:
            room = next(iter(remaining))
        else:
            total = math.fsum(remaining.values())
            renorm = {r: (p / total if total > 0 else 1.0 / len(remaining))
                      for r, p in remaining.items()}
            rep_scores: dict[str, float] = {}
            for r, p in renorm.items():
                rep_scores[reps[r]] = rep_scores.get(reps[r], 0.0) + p
            sub = plan_optimal(env, position,
                               WaypointScores(rep_scores, math.fsum(rep_scores.values())),
                               config)
            first_rep = sub.sequence[0]
            room = min((r for r in remaining if reps[r] == first_rep),
                       key=lambda r: (-renorm[r], r))

        sweep = _room_visit_order(env, env.rooms[room], ranking) or [reps[room]]
        visits = [wid for wid in sweep if wid not in sequence]
        mass = remaining.pop(room)
        if visits:
            share = mass / len(visits)
            for wid in visits:
                sequence.append(wid)
                step_scores[wid] = share
            position = visits[-1]
        else:
            step_scores[max(sweep, key=sequence.index)] += mass

    return make_plan(env, start, sequence, step_scores, config, "room_search",
                     total_mass=math.fsum(room_dist.entries.values()))


def hottest_object_plan(env, dist: AffinityDistribution, start: str,
                        config: PlannerConfig | None = None) -> SearchPlan:
    """Go straight to the waypoint hosting the single most probable object."""
    config = config or PlannerConfig()
    instance_probs = split_across_instances(dist, env.objects.values())
    if not instance_probs:
        raise BaselineError("environment has no objects to rank")
    best = min(instance_probs, key=lambda iid: (-instance_probs[iid], iid))
    waypoint = env.objects[best].waypoint
    s_w = math.fsum(p for iid, p in instance_probs.items()
                    if env.objects[iid].waypoint == waypoint)
    return make_plan(env, start, [waypoint], {waypoint: s_w}, config, "hottest_object",
                     total_mass=math.fsum(instance_probs.values()))


def hottest_waypoint_plan(env, scores: WaypointScores, start: str,
                          config: PlannerConfig | None = None) -> SearchPlan:
    """Go straight to the waypoint with the highest probability sum."""
    config = config or PlannerConfig()
    if not scores.scores:
        raise BaselineError("waypoint scores are empty")
    best = min(scores.scores, key=lambda wid: (-scores.scores[wid], wid))
    return make_plan(env, start, [best], {best: scores.scores[best]}, config,
                     "hottest_waypoint", total_mass=scores.total_mass)
