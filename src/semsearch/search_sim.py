"""Discrete episode simulator: walks a search plan against ground truth.

Perception is parametric rather than visual: a true-positive rate for spotting
the real target and a false-positive rate per inspected non-target object.
Episodes are fully deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .env_graph import Environment, GroundTruth, SeenObject
    from .planner import SearchPlan


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


@dataclass(frozen=True)
class SimulationParams:
    lost_threshold: float = 0.95  # fraction of total probability mass
    perception: PerceptionModel = PerceptionModel()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lost_threshold <= 1.0:
            raise ValueError(f"lost_threshold must be in (0, 1], got {self.lost_threshold}")


@dataclass(frozen=True)
class DetectionOutcome:
    kind: str  # "true_positive" | "false_positive" | "none"
    instance_id: str | None = None

    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    NONE = "none"


@dataclass(frozen=True)
class StepRecord:
    waypoint: str
    leg_meters: float
    consumed: float
    detection: DetectionOutcome


@dataclass(frozen=True)
class EpisodeResult:
    outcome: Outcome
    traversed_length: float
    ideal_length: float
    steps: tuple[StepRecord, ...]
    seed: int


def inspect(objects: Iterable["SeenObject"], truth: "GroundTruth",
            perception: PerceptionModel, rng: random.Random) -> DetectionOutcome:
    """Draw one detection per object in the given order; first trigger wins.

    The order must be instance_id order, as `Environment.objects_at` returns it.
    """
    for obj in objects:
        if obj.instance_id == truth.host_object:
            if rng.random() < perception.true_positive_rate:
                return DetectionOutcome(DetectionOutcome.TRUE_POSITIVE, obj.instance_id)
        else:
            if rng.random() < perception.false_positive_rate:
                return DetectionOutcome(DetectionOutcome.FALSE_POSITIVE, obj.instance_id)
    return DetectionOutcome(DetectionOutcome.NONE)


def run_episode(env: "Environment", plan: "SearchPlan", truth: "GroundTruth",
                params: SimulationParams, seed: int | None = None) -> EpisodeResult:
    """Visit the plan's waypoints in order until found, lost, or exhausted.

    The lost check runs after each waypoint's inspections, so the waypoint at
    which the threshold is crossed is still inspected and nothing beyond it is.
    """
    seed_used = seed if seed is not None else params.seed
    rng = random.Random(seed_used)

    host = env.objects.get(truth.host_object)
    if host is None:
        raise ValueError(f"ground truth host object {truth.host_object!r} is not in the environment")
    host_waypoint = host.waypoint
    ideal = env.distance(plan.start, host_waypoint)

    traversed = 0.0
    consumed = 0.0
    position = plan.start
    steps: list[StepRecord] = []
    outcome = Outcome.EXHAUSTED

    for step in plan.per_step:
        leg = env.distance(position, step.waypoint)
        traversed += leg
        position = step.waypoint
        detection = inspect(env.objects_at(step.waypoint), truth, params.perception, rng)
        consumed += step.score
        steps.append(StepRecord(step.waypoint, leg, consumed, detection))
        if detection.kind == DetectionOutcome.TRUE_POSITIVE:
            outcome = Outcome.FOUND
            break
        if detection.kind == DetectionOutcome.FALSE_POSITIVE:
            outcome = Outcome.FOUND_FALSE
            break
        if consumed >= params.lost_threshold * plan.total_mass:
            outcome = Outcome.LOST
            break

    return EpisodeResult(
        outcome=outcome,
        traversed_length=traversed,
        ideal_length=ideal,
        steps=tuple(steps),
        seed=seed_used,
    )
