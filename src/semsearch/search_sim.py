"""Discrete episode simulator: draws detections along a search plan.

The plan already carries every leg in meters and the running meters and
probability mass, so an episode is the walked prefix of its plan plus the
object whose detection ended it. Perception is parametric rather than visual: a
true-positive rate for spotting the real target and a false-positive rate per
inspected non-target object.

An episode's randomness is one `TrialDraws` stream: draw j is the j-th
`random()` of `random.Random(seed)`, and the j-th inspected object of the
episode, in plan order and then instance_id order, triggers when draw j is
below its rate. A rate of 0 or 1 decides without reading its draw, though the
object still takes its position, so an episode with no fractional rate seeds
no generator. Episodes are fully deterministic given the seed.

`cli.run_bench` makes each trial's stream once and every method reads it.
With no fractional rate it runs one episode per (method, start, host) and
reuses it for every trial that shares them.
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


class TrialDraws:
    """One trial's detection draws, read by position.

    Position j holds the j-th `random()` of `random.Random(seed)`. The
    generator is seeded on the first read and every value read is kept, so
    episodes sharing a stream read the same draws and a stream never read
    seeds nothing.
    """

    __slots__ = ("seed", "_rng", "_values")

    def __init__(self, seed: int):
        self.seed = seed
        self._rng: random.Random | None = None
        self._values: list[float] = []

    def __getitem__(self, position: int) -> float:
        values = self._values
        if position < len(values):
            return values[position]
        if self._rng is None:
            self._rng = random.Random(self.seed)
        draw = self._rng.random
        while len(values) <= position:
            values.append(draw())
        return values[position]


def inspect(objects: Iterable["SeenObject"], truth: "GroundTruth",
            perception: PerceptionModel, draws: TrialDraws, first: int = 0) -> str | None:
    """Decide each object in the given order; return the instance_id of the
    first that triggers, or None.

    The i-th object takes draw `first + i` and triggers when it is below the
    object's rate; a rate of 0 or 1 decides without reading the draw. The
    order must be instance_id order, as `Environment.objects_at` returns it.
    """
    for position, obj in enumerate(objects, first):
        rate = (perception.true_positive_rate if obj.instance_id == truth.host_object
                else perception.false_positive_rate)
        if rate >= 1.0 or (rate > 0.0 and draws[position] < rate):
            return obj.instance_id
    return None


def run_episode(env: "Environment", plan: "SearchPlan", truth: "GroundTruth",
                params: SimulationParams, seed: int | None = None, *,
                draws: TrialDraws | None = None) -> EpisodeResult:
    """Inspect the plan's waypoints in order until found, lost, or exhausted.

    The detections read `draws`, by default a new stream from `seed` (or
    `params.seed`). The lost check runs after each waypoint's inspections, so
    the waypoint at which the threshold is crossed is still inspected and
    nothing beyond it is.
    """
    if draws is None:
        draws = TrialDraws(seed if seed is not None else params.seed)

    host = env.objects.get(truth.host_object)
    if host is None:
        raise ValueError(f"ground truth host object {truth.host_object!r} is not in the environment")
    host_waypoint = host.waypoint
    ideal = env.distance(plan.start, host_waypoint)

    lost_mass = LOST_THRESHOLD * plan.total_mass
    stop = position = 0
    detected = None
    outcome = Outcome.EXHAUSTED

    for stop, step in enumerate(plan.per_step, 1):
        objects = env.objects_at(step.waypoint)
        detected = inspect(objects, truth, params.perception, draws, position)
        position += len(objects)
        if detected is not None:
            outcome = Outcome.FOUND if detected == truth.host_object else Outcome.FOUND_FALSE
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
        detected=detected,
    )
