"""Search-path planning over scored waypoints.

A waypoint's score is the summed probability of the objects it hosts. A plan
is an ordering of all score-positive waypoints minimizing

    cost = sum of leg distances - weight * sum of score(v_j) / j

where j is the 1-based visit rank, so high scores are worth the most early.
Leg distances are normalized by the environment's maximum pairwise
shortest-path distance; raw meters would dwarf the probability term and
collapse the objective into pure distance.

The discount depends only on how many waypoints were visited before, so the
cost still to pay from a (visited set, last waypoint) state depends neither on
the order the set was visited in nor on the start. A backward Held-Karp table
of those costs is built once per scored set and shared by every start; a plan
is the best first step plus a walk down the table that settles rounding-level
ties the way enumerating every permutation would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .affinity import AffinityDistribution, split_across_instances

# The table holds 2^k * k states and takes 2^k * k^2 steps to build: at 16
# scored waypoints about 0.8-1.3 s and 30 MB on a 2-core x86 VM with CPython
# 3.11, and every further waypoint more than doubles both.
MAX_SCORED_WAYPOINTS = 16


class PlannerError(Exception):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    score_weight: float = 1.0     # weight of the discounted score term

    def __post_init__(self):
        if self.score_weight <= 0:
            raise ValueError(f"score_weight must be positive, got {self.score_weight}")


@dataclass(frozen=True)
class WaypointScores:
    scores: dict[str, float]
    total_mass: float

    def __post_init__(self):
        for wid, s in self.scores.items():
            if s < 0:
                raise ValueError(f"negative score {s} for waypoint {wid!r}")

    def positive(self) -> list[str]:
        return sorted(w for w, s in self.scores.items() if s > 0)


@dataclass(frozen=True)
class PlanStep:
    waypoint: str
    leg: float         # meters over the map's maximum pairwise distance
    leg_meters: float  # shortest-path meters from the previous waypoint
    score: float
    cumulative: float  # running probability mass after this waypoint
    traversed: float   # running meters walked after this waypoint


@dataclass(frozen=True)
class SearchPlan:
    start: str
    sequence: tuple[str, ...]
    cost: float
    per_step: tuple[PlanStep, ...]
    total_mass: float
    score_weight: float = 1.0
    mode: str = ""

    def __post_init__(self):
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("plan sequence repeats a waypoint")
        previous = 0.0
        for step in self.per_step:
            if step.cumulative < previous - 1e-12:
                raise ValueError("cumulative probability decreases along the plan")
            previous = step.cumulative
        recomputed = (math.fsum(s.leg for s in self.per_step)
                      - self.score_weight * math.fsum(s.score / j for j, s in enumerate(self.per_step, 1)))
        if self.per_step and abs(recomputed - self.cost) > 1e-9:
            raise ValueError(f"plan cost {self.cost} disagrees with per-step recomputation {recomputed}")


def waypoint_scores(env, dist: AffinityDistribution) -> WaypointScores:
    """Sum per-instance probabilities at each object-bearing waypoint."""
    instance_probs = split_across_instances(dist, env.objects.values())
    totals: dict[str, float] = {}
    for obj in env.objects.values():
        totals[obj.waypoint] = totals.get(obj.waypoint, 0.0) + instance_probs[obj.instance_id]
    scores = {wid: totals[wid] for wid in sorted(totals)}
    return WaypointScores(scores=scores, total_mass=math.fsum(scores.values()))


def _normalizer(env) -> float:
    d = env.max_pairwise_distance
    return d if d > 0 else 1.0


def path_cost(sequence, start: str, scores: WaypointScores, env,
              config: PlannerConfig | None = None) -> float:
    """Cost of visiting `sequence` from `start`; empty sequence costs 0."""
    return make_plan(env, start, sequence, scores.scores, config or PlannerConfig(), "").cost


def make_plan(env, start: str, sequence, step_scores: dict[str, float],
              config: PlannerConfig, mode: str, total_mass: float | None = None) -> SearchPlan:
    """Assemble a SearchPlan for an explicit visiting order.

    This is the one walk of the graph along a plan: every leg, in meters and
    normalized, and every running sum is added up here in visiting order, and
    an episode reads them off a prefix of `per_step`. plan_optimal's tie-break
    relies on exactly these floats.
    """
    env._require(start)
    norm = _normalizer(env)
    sequence = tuple(sequence)
    steps = []
    dist_sum = score_sum = cumulative = traversed = 0.0
    previous = start
    for rank, waypoint in enumerate(sequence, start=1):
        if waypoint not in step_scores:
            raise PlannerError(f"waypoint {waypoint!r} in sequence has no score")
        meters = env.distance(previous, waypoint)
        leg = meters / norm
        score = step_scores[waypoint]
        dist_sum += leg
        score_sum += score / rank
        cumulative += score
        traversed += meters
        steps.append(PlanStep(waypoint, leg, meters, score, cumulative, traversed))
        previous = waypoint
    return SearchPlan(
        start=start,
        sequence=sequence,
        cost=dist_sum - config.score_weight * score_sum,
        per_step=tuple(steps),
        total_mass=total_mass if total_mass is not None else cumulative,
        score_weight=config.score_weight,
        mode=mode,
    )


@functools.lru_cache(maxsize=1)
def _cost_to_go(leg: tuple[tuple[float, ...], ...], score: tuple[float, ...],
                weight: float) -> list[list[float]]:
    """Backward Held-Karp table over (visited set, last waypoint) states.

    ctg[mask][j] is the least cost of visiting every waypoint outside `mask`
    after visiting exactly `mask` and ending at j. It reads nothing of the
    start, so the last table built is kept and serves every start over the
    same normalized legs, scores and weight.
    """
    n = len(score)
    full = (1 << n) - 1
    ctg = [[0.0] * n for _ in range(full + 1)]
    for mask in range(full - 1, 0, -1):
        rank = mask.bit_count() + 1
        after = [(i, ctg[mask | 1 << i][i] - weight * score[i] / rank)
                 for i in range(n) if not mask >> i & 1]
        row = ctg[mask]
        for j in range(n):
            if mask >> j & 1:
                to = leg[j]
                row[j] = min([to[i] + rest for i, rest in after])
    return ctg


def plan_optimal(env, start: str, scores: WaypointScores,
                 config: PlannerConfig | None = None) -> SearchPlan:
    """Globally optimal order of all score-positive waypoints.

    The backward table gives every state's exact cost to go, so the optimum
    from `start` is the best first step plus that step's cost to go. Prefixes
    are then walked depth-first in waypoint-id order down every branch that
    can still finish within rounding slack of the optimum, adding the leg and
    score sums in visiting order like make_plan. Of the sequences reached, the
    cheapest by those sums wins, and exact cost ties resolve to the
    lexicographically smallest sequence.
    """
    config = config or PlannerConfig()
    env._require(start)
    candidates = scores.positive()
    n = len(candidates)
    if not n:
        raise PlannerError("no score-positive waypoints to plan over")
    if n > MAX_SCORED_WAYPOINTS:
        raise PlannerError(f"{n} scored waypoints exceed the planner's cap of "
                           f"{MAX_SCORED_WAYPOINTS}")
    norm = _normalizer(env)
    weight = config.score_weight

    # Candidates are sorted, so index sequences compare like waypoint-id ones.
    start_leg = [env.distance(start, w) / norm for w in candidates]
    leg = tuple(tuple(env.distance(a, b) / norm for b in candidates) for a in candidates)
    score = tuple(scores.scores[w] for w in candidates)
    ctg = _cost_to_go(leg, score, weight)

    # Rounding can reverse two orders whose costs differ by less than `slack`
    # (far above the rounding error of any sum here), so every prefix within
    # it of the optimum is walked. A prefix more than `slack` behind can
    # never finish first.
    slack = 1e-12 * (n * max(start_leg + [max(row) for row in leg])
                     + weight * math.fsum(score))
    limit = min(start_leg[i] - weight * score[i] + ctg[1 << i][i] for i in range(n)) + slack

    # kept[mask, last] holds the (leg sum, score sum) of each prefix walked
    # into that state. A later prefix is lexicographically larger; when an
    # earlier one is no worse on either sum, rounding is monotone, so the
    # earlier one finishes no worse and the later one is skipped. Without
    # this, exactly tied orders (equal scores on a symmetric map) would be
    # walked factorially.
    kept: dict[tuple[int, int], list[tuple[float, float]]] = {}
    finished: list[tuple[float, tuple[int, ...]]] = []
    order: list[int] = []

    def walk(mask: int, legs, rank: int, dist_sum: float, score_sum: float) -> None:
        if rank == n:
            finished.append((dist_sum - weight * score_sum, tuple(order)))
            return
        rank += 1
        for i in range(n):
            if mask >> i & 1:
                continue
            d = dist_sum + legs[i]
            s = score_sum + score[i] / rank
            visited = mask | 1 << i
            if d - weight * s + ctg[visited][i] > limit:
                continue
            seen = kept.setdefault((visited, i), [])
            if any(kd <= d and ks >= s for kd, ks in seen):
                continue
            seen.append((d, s))
            order.append(i)
            walk(visited, leg[i], rank, d, s)
            order.pop()

    walk(0, start_leg, 0, 0.0, 0.0)
    _, best = min(finished)
    return make_plan(env, start, tuple(candidates[i] for i in best), scores.scores, config,
                     "dp", total_mass=scores.total_mass)
