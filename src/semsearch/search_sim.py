"""Discrete episode simulator: draws detections along a search plan.

The plan already carries every leg in meters and the running meters and
probability mass, so an episode is the walked prefix of its plan plus the
object whose detection ended it. Perception is parametric rather than visual: a
true-positive rate for spotting the real target and a false-positive rate per
inspected non-target object.

An episode is fixed by its plan, its host and its trial's draws: draw j is the
j-th `random()` of `random.Random(seed)`, and the j-th inspected object of the
episode, in plan order and then instance_id order, triggers when draw j is
below its rate. A rate of 0 or 1 decides without reading its draw, though the
object still takes its position. So `episode_endings` lists, once per (plan,
host), each object that can end the episode, and an episode is the first of
them that its draws trigger (`first_ending`). With no fractional rate the list
ends at its first entry, the draws are empty and no generator is seeded.
Episodes are fully deterministic given the seed.

`cli.run_bench` makes each trial's draws once and every method reads them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

if TYPE_CHECKING:
    from .env_graph import Environment, GroundTruth
    from .planner import PlanStep, SearchPlan

# An episode is lost once the inspected waypoints hold this share of the
# plan's total probability mass.
LOST_THRESHOLD = 0.95


class Outcome(str, Enum):
    FOUND = "found"            # true positive at the target's host
    FOUND_FALSE = "found_false"  # committed to a false positive; counts as failure
    LOST = "lost"              # consumed the lost-threshold share of probability mass
    EXHAUSTED = "exhausted"    # plan ran out before any trigger


@dataclass(frozen=True)
class PerceptionModel:
    """Detection rates are post-threshold: they already fold in the confidence cut."""

    true_positive_rate: float = 1.0
    false_positive_rate: float = 0.0

    def __post_init__(self):
        for name in ("true_positive_rate", "false_positive_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    @property
    def fractional(self) -> bool:
        """Whether either rate lies strictly between 0 and 1. Without one, an
        episode reads no draw and depends only on its plan and host."""
        return any(0.0 < rate < 1.0 for rate in
                   (self.true_positive_rate, self.false_positive_rate))


@dataclass(frozen=True)
class SimulationParams:
    perception: PerceptionModel = PerceptionModel()
    seed: int = 0


@dataclass(frozen=True)
class EpisodeResult:
    outcome: Outcome
    traversed_length: float
    ideal_length: float
    steps: tuple["PlanStep", ...]  # the walked prefix of plan.per_step
    # The object detected at the last step, which ended the episode; None
    # unless the outcome is FOUND or FOUND_FALSE.
    detected: str | None = None


# (draw position, rate, result): one way an episode can end; see episode_endings.
Ending = tuple[int, float, EpisodeResult]
T = TypeVar("T")


def trial_draws(env: "Environment", perception: PerceptionModel, seed: int) -> Sequence[float]:
    """One trial's detection draws: the first `len(env.objects)` values of
    `random.Random(seed)`, or `()` when no rate is fractional and so no draw
    is read. A plan repeats no waypoint, so no episode inspects more objects."""
    if not perception.fractional:
        return ()
    draw = random.Random(seed).random
    return [draw() for _ in env.objects]


def episode_endings(env: "Environment", plan: "SearchPlan", truth: "GroundTruth",
                    perception: PerceptionModel) -> list[Ending]:
    """Every way the episode can end, in inspection order.

    Each inspected object with a positive rate gives one `(position, rate,
    result)` entry: the episode ends there when the object's draw, the one at
    `position`, is below `rate`. The list stops at the first entry of rate 1:
    an object detected for certain, or else the lost or exhausted end, placed
    after the last inspected object. The lost check runs after each waypoint's
    inspections, so the waypoint at which the threshold is crossed is still
    inspected and nothing beyond it is.
    """
    host = env.objects.get(truth.host_object)
    if host is None:
        raise ValueError(f"ground truth host object {truth.host_object!r} is not in the environment")
    ideal = env.distance(plan.start, host.waypoint)
    tpr, fpr = perception.true_positive_rate, perception.false_positive_rate

    def ending(outcome: Outcome, stop: int, detected: str | None = None) -> EpisodeResult:
        steps = plan.per_step[:stop]
        return EpisodeResult(outcome, steps[-1].traversed if steps else 0.0, ideal, steps,
                             detected)

    lost_mass = LOST_THRESHOLD * plan.total_mass
    endings: list[Ending] = []
    position = 0
    for stop, step in enumerate(plan.per_step, 1):
        for obj in env.objects_at(step.waypoint):
            is_host = obj.instance_id == truth.host_object
            rate = tpr if is_host else fpr
            if rate > 0.0:
                outcome = Outcome.FOUND if is_host else Outcome.FOUND_FALSE
                endings.append((position, rate, ending(outcome, stop, obj.instance_id)))
                if rate >= 1.0:
                    return endings
            position += 1
        if step.cumulative >= lost_mass:
            endings.append((position, 1.0, ending(Outcome.LOST, stop)))
            return endings
    endings.append((position, 1.0, ending(Outcome.EXHAUSTED, len(plan.per_step))))
    return endings


def first_ending(endings: Iterable[tuple[int, float, T]], draws: Sequence[float]) -> T:
    """The last item of the first entry whose rate is 1 or whose draw is below
    its rate; the entry of rate 1 that ends every list reads no draw."""
    for position, rate, ending in endings:
        if rate >= 1.0 or draws[position] < rate:
            return ending


def run_episode(env: "Environment", plan: "SearchPlan", truth: "GroundTruth",
                params: SimulationParams, seed: int | None = None) -> EpisodeResult:
    """Inspect the plan's waypoints in order until found, lost, or exhausted:
    its endings scanned against the draws of `seed` (or `params.seed`)."""
    draws = trial_draws(env, params.perception, seed if seed is not None else params.seed)
    return first_ending(episode_endings(env, plan, truth, params.perception), draws)
