"""Search-path planning over scored waypoints.

A waypoint's score is the summed probability of the objects it hosts. A plan
is an ordering of all score-positive waypoints minimizing

    cost = sum of leg distances - weight * sum of score(v_j) / j

where j is the 1-based visit rank, so high scores are worth the most early.
Leg distances are normalized by the environment's maximum pairwise
shortest-path distance by default; raw meters would dwarf the probability
term and collapse the objective into pure distance.

The discount depends only on how many waypoints were visited before, so the
optimum is found exactly by a Held-Karp dynamic program over (visited set,
last waypoint) states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .affinity import AffinityDistribution, split_across_instances

# The DP holds 2^k * k states: 16 scored waypoints take about 2 s and 100 MB
# on a 2-core x86 VM with CPython 3.11, and every further waypoint doubles both.
MAX_SCORED_WAYPOINTS = 16


class PlannerError(Exception):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    score_weight: float = 1.0     # weight of the discounted score term
    distance_normalizer: str = "max_pairwise"  # or "none" for raw meters

    def __post_init__(self):
        if self.score_weight <= 0:
            raise ValueError(f"score_weight must be positive, got {self.score_weight}")
        if self.distance_normalizer not in ("max_pairwise", "none"):
            raise ValueError(f"unknown distance_normalizer {self.distance_normalizer!r}")


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
    leg: float         # normalized units (meters when normalizer is "none")
    score: float
    cumulative: float  # running probability mass after this waypoint


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


def _normalizer(env, config: PlannerConfig) -> float:
    if config.distance_normalizer == "none":
        return 1.0
    d = env.max_pairwise_distance
    return d if d > 0 else 1.0


def path_cost(sequence, start: str, scores: WaypointScores, env,
              config: PlannerConfig | None = None) -> float:
    """Cost of visiting `sequence` from `start`; empty sequence costs 0."""
    return make_plan(env, start, sequence, scores.scores, config or PlannerConfig(), "").cost


def make_plan(env, start: str, sequence, step_scores: dict[str, float],
              config: PlannerConfig, mode: str, total_mass: float | None = None) -> SearchPlan:
    """Assemble a SearchPlan for an explicit visiting order.

    The leg and score sums are added up in visiting order; plan_optimal's
    tie-break relies on exactly these floats.
    """
    env._require(start)
    norm = _normalizer(env, config)
    sequence = tuple(sequence)
    steps = []
    dist_sum = score_sum = cumulative = 0.0
    previous = start
    for rank, waypoint in enumerate(sequence, start=1):
        if waypoint not in step_scores:
            raise PlannerError(f"waypoint {waypoint!r} in sequence has no score")
        leg = env.distance(previous, waypoint) / norm
        score = step_scores[waypoint]
        dist_sum += leg
        score_sum += score / rank
        cumulative += score
        steps.append(PlanStep(waypoint=waypoint, leg=leg, score=score, cumulative=cumulative))
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


def plan_optimal(env, start: str, scores: WaypointScores,
                 config: PlannerConfig | None = None) -> SearchPlan:
    """Globally optimal order of all score-positive waypoints.

    A forward DP over states (visited set, last waypoint): the remaining cost
    from a state does not depend on how it was reached, because the discount
    of the next visit depends only on how many waypoints were visited. The
    leg and score sums are accumulated in visiting order like make_plan, so
    the cost matches enumeration exactly, and cost ties resolve to the
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
    norm = _normalizer(env, config)
    weight = config.score_weight

    # Candidates are sorted, so index sequences compare like waypoint-id ones.
    start_leg = [env.distance(start, w) / norm for w in candidates]
    leg_to = [[env.distance(a, b) / norm for a in candidates] for b in candidates]
    score = [scores.scores[w] for w in candidates]

    # Rounding can reverse two partial orders of one state whose costs differ
    # by less than `slack` (far above the rounding error of any sum here), so
    # both are kept unless one is lexicographically smaller and no worse on
    # either sum; rounding is monotone, so that one then finishes no worse. A
    # partial order more than `slack` behind can never finish first.
    slack = 1e-12 * (n * max(start_leg + [max(row) for row in leg_to])
                     + weight * math.fsum(score))

    # dist_sum[mask][last], score_sum[mask][last] and parent[mask][last]
    # describe the best partial order that visits exactly `mask` and ends at
    # `last`; extra[mask, last] holds the near ties kept beside it as (leg sum,
    # score sum, parent). A partial order is coded k * n + last: k = 0 is the
    # best one of its state and k > 0 is extra[mask, last][k - 1].
    size = 1 << n
    members: list[list[int]] = [[]] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        members[mask] = [low] + members[mask & (mask - 1)]
    dist_sum = [[0.0] * n for _ in range(size)]
    score_sum = [[0.0] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    extra: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
    masks_with_extra: set[int] = set()

    def sequence(mask: int, code: int) -> list[int]:
        """Visiting order of partial order `code` among those covering `mask`."""
        seq = []
        while code >= 0:
            k, last = divmod(code, n)
            seq.append(last)
            code = parent[mask][last] if k == 0 else extra[mask, last][k - 1][2]
            mask ^= 1 << last
        seq.reverse()
        return seq

    def settle_ties(mask: int, j: int, gain: float) -> None:
        """Fill state (mask, j) from every kept partial order of its predecessors."""
        prev = mask ^ (1 << j)
        to_j = leg_to[j]
        extended = []
        for i in members[prev]:
            extended.append((dist_sum[prev][i] + to_j[i], score_sum[prev][i] + gain, i))
            extended += [(d + to_j[i], s + gain, k * n + i)
                         for k, (d, s, _) in enumerate(extra.get((prev, i), ()), 1)]
        limit = min(d - weight * s for d, s, _ in extended) + slack
        kept: list[tuple[float, float, int]] = []
        for d, s, code in sorted((e for e in extended if e[0] - weight * e[1] <= limit),
                                 key=lambda e: sequence(prev, e[2])):
            if not any(kd <= d and ks >= s for kd, ks, _ in kept):
                kept.append((d, s, code))
        dist_sum[mask][j], score_sum[mask][j], parent[mask][j] = kept[0]
        if len(kept) > 1:
            extra[mask, j] = kept[1:]
            masks_with_extra.add(mask)

    for j in range(n):
        dist_sum[1 << j][j] = start_leg[j]
        score_sum[1 << j][j] = score[j]
    for mask in range(1, size):
        rank = len(members[mask])
        if rank < 2:
            continue
        row_dist, row_score, row_parent = dist_sum[mask], score_sum[mask], parent[mask]
        for j in members[mask]:
            prev = mask ^ (1 << j)
            prev_dist, prev_score = dist_sum[prev], score_sum[prev]
            gain = score[j] / rank
            to_j = leg_to[j]
            options = members[prev]
            costs = [(prev_dist[i] + to_j[i]) - weight * (prev_score[i] + gain)
                     for i in options]
            # Without near ties the best predecessor alone fills the state;
            # settle_ties would give the same result at about half the speed.
            best = min(costs)
            at = costs.index(best)
            costs[at] = math.inf
            if prev in masks_with_extra or min(costs) <= best + slack:
                settle_ties(mask, j, gain)
                continue
            i = options[at]
            row_dist[j] = prev_dist[i] + to_j[i]
            row_score[j] = prev_score[i] + gain
            row_parent[j] = i

    full = size - 1
    finished = [(dist_sum[full][j] - weight * score_sum[full][j], j) for j in range(n)]
    finished += [(d - weight * s, k * n + j) for j in range(n)
                 for k, (d, s, _) in enumerate(extra.get((full, j), ()), 1)]
    _, code = min(finished, key=lambda f: (f[0], sequence(full, f[1])))
    sequence_ids = tuple(candidates[i] for i in sequence(full, code))
    return make_plan(env, start, sequence_ids, scores.scores, config, "dp",
                     total_mass=scores.total_mass)
