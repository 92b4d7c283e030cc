"""Discrete episode simulator: draws detections along a search plan.

The plan already carries every leg in meters and the running meters and
probability mass, so an episode is the walked prefix of its plan plus the
detection that ended it. Perception is parametric rather than visual: a
true-positive rate for spotting the real target and a false-positive rate per
inspected non-target object. Episodes are fully deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .env_graph import Environment, GroundTruth, SeenObject
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


@dataclass(frozen=True)
class SimulationParams:
    perception: PerceptionModel = PerceptionModel()
    seed: int = 0


@dataclass(frozen=True)
class DetectionOutcome:
    kind: str  # "true_positive" | "false_positive" | "none"
    instance_id: str | None = None

    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    NONE = "none"


NO_DETECTION = DetectionOutcome(DetectionOutcome.NONE)


@dataclass(frozen=True)
class EpisodeResult:
    outcome: Outcome
    traversed_length: float
    ideal_length: float
    steps: tuple["PlanStep", ...]  # the walked prefix of plan.per_step
    seed: int
    # The last step's detection; only the last inspected step can trigger,
    # because a true or false positive ends the episode.
    detection: DetectionOutcome = NO_DETECTION


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
    return NO_DETECTION


def run_episode(env: "Environment", plan: "SearchPlan", truth: "GroundTruth",
                params: SimulationParams, seed: int | None = None) -> EpisodeResult:
    """Inspect the plan's waypoints in order until found, lost, or exhausted.

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

    lost_mass = LOST_THRESHOLD * plan.total_mass
    stop = 0
    detection = NO_DETECTION
    outcome = Outcome.EXHAUSTED

    for stop, step in enumerate(plan.per_step, 1):
        detection = inspect(env.objects_at(step.waypoint), truth, params.perception, rng)
        if detection.kind == DetectionOutcome.TRUE_POSITIVE:
            outcome = Outcome.FOUND
            break
        if detection.kind == DetectionOutcome.FALSE_POSITIVE:
            outcome = Outcome.FOUND_FALSE
            break
        if step.cumulative >= lost_mass:
            outcome = Outcome.LOST
            break

    steps = plan.per_step[:stop]
    return EpisodeResult(
        outcome=outcome,
        traversed_length=steps[-1].traversed if steps else 0.0,
        ideal_length=ideal,
        steps=steps,
        seed=seed_used,
        detection=detection,
    )
