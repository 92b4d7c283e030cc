"""Semantic affinity scoring: turns per-label scorer output into a normalized
probability distribution over seen-object labels for one target label.

The LLM path prompts with exactly one seen label at a time and converts the
completion's token log-probabilities into a raw score via exp(mean logprob).
The table path looks raw scores up directly, which keeps tests and offline
benchmarks fully deterministic.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

from .llm_gateway import CompletionRequest, LLMGateway, TokenLogprobs

SYSTEM_PROMPT = (
    "You are an expert object location reasoning robot. You will be given some seen "
    "objects and a target object. You need to output which is the best seen object to "
    "go to in order to find the target object. You may only use the seen objects for "
    "reasoning, and must output a seen object to go to."
)

USER_PROMPT_TEMPLATE = "I see the following: {seen}. Where should I go to find {target}?"

# Raw scores below this floor are treated as total scorer failure.
ZERO_SCORE_FLOOR = 1e-12


class ScorerError(Exception):
    """A scorer could not produce a raw value for a label pair."""


class MissingAffinityError(ScorerError):
    """Table scorer has no entry for the pair and no default."""


class MissingLabelError(ScorerError):
    """An environment label has no probability in the distribution."""


def normalize_label(label: str) -> str:
    """Canonical label form: whitespace-trimmed, case-insensitive."""
    return label.strip().lower()


@dataclass(frozen=True)
class PromptPair:
    system_text: str
    user_text: str


def build_prompt(seen_label: str, target_label: str) -> PromptPair:
    """Substitute the two labels into the fixed prompt pair, nothing else."""
    if not seen_label.strip():
        raise ValueError("seen_label is empty")
    if not target_label.strip():
        raise ValueError("target_label is empty")
    return PromptPair(
        system_text=SYSTEM_PROMPT,
        user_text=USER_PROMPT_TEMPLATE.format(seen=seen_label, target=target_label),
    )


def aggregate_logprobs(logprobs: TokenLogprobs) -> float:
    """exp of the arithmetic mean of the token logprobs; in (0, 1]."""
    values = logprobs.values()
    if not values:
        raise ValueError("cannot aggregate an empty token list")
    return math.exp(math.fsum(values) / len(values))


@dataclass(frozen=True)
class AffinityDistribution:
    """Normalized probability per seen-object label that the target sits there."""

    target_label: str
    entries: dict[str, float]
    raw: dict[str, float]

    def __post_init__(self):
        total = math.fsum(self.entries.values())
        if self.entries and abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total}, not 1")
        for label, p in self.entries.items():
            if p < 0:
                raise ValueError(f"negative probability {p} for label {label!r}")

    def probability(self, label: str) -> float:
        key = normalize_label(label)
        if key not in self.entries:
            raise MissingLabelError(f"label {label!r} has no probability in the distribution")
        return self.entries[key]


def split_across_instances(dist: AffinityDistribution, objects) -> dict[str, float]:
    """Per-instance probabilities: each instance gets p(label) / count(label).

    Duplicate labels share their label's mass equally, so the total stays 1 and
    the one-host-at-a-time assumption is preserved.
    """
    counts: dict[str, int] = {}
    for obj in objects:
        key = normalize_label(obj.label)
        counts[key] = counts.get(key, 0) + 1
    result: dict[str, float] = {}
    for obj in objects:
        key = normalize_label(obj.label)
        result[obj.instance_id] = dist.probability(key) / counts[key]
    return result


class AffinityScorer(Protocol):
    def score(self, seen_label: str, target_label: str) -> "TokenLogprobs | float": ...


class TableScorer:
    """Raw scores from a declared table keyed 'name|target', plus an optional
    'default' for absent pairs.

    Tables come from a scenario document. Lookups ignore case and surrounding
    whitespace. Subclasses set the key name, the value cap and the error a
    missing pair raises.
    """

    KEY = "seen|target"
    CAP = 1.0
    MISSING = MissingAffinityError

    def __init__(self, table: dict):
        self.default: float | None = None
        self._table: dict[tuple[str, str], float] = {}
        for key, value in table.items():
            value = float(value)
            if value < 0:
                raise ValueError(f"table value for {key!r} is negative: {value}")
            if value > self.CAP:
                raise ValueError(f"table value for {key!r} is above {self.CAP}: {value}")
            if key == "default":
                self.default = value
                continue
            if "|" not in key:
                raise ValueError(f"table key {key!r} is not {self.KEY!r}")
            name, target = key.split("|", 1)
            self._table[(normalize_label(name), normalize_label(target))] = value

    def score(self, name: str, target_label: str) -> float:
        pair = (normalize_label(name), normalize_label(target_label))
        if pair in self._table:
            return self._table[pair]
        if self.default is not None:
            return self.default
        raise self.MISSING(f"no table score for pair {pair[0]!r}|{pair[1]!r} and no default")


class LLMScorer:
    """Scores a pair by prompting the model and returning the completion's logprobs.

    The completion's text answer plays no part in the score; it is kept in
    `answers` so episode logs can show what the model actually said.
    """

    def __init__(self, gateway: LLMGateway):
        self.gateway = gateway
        self.answers: dict[tuple[str, str], str] = {}

    def score(self, seen_label: str, target_label: str) -> TokenLogprobs:
        prompt = build_prompt(seen_label, target_label)
        result = self.gateway.complete(CompletionRequest(
            system_text=prompt.system_text,
            user_text=prompt.user_text,
            model=self.gateway.config.model,
            max_tokens=64,
        ))
        self.answers[(normalize_label(seen_label), normalize_label(target_label))] = result.answer_text
        return result.token_logprobs


def _raw_score(scorer: AffinityScorer, seen_label: str, target_label: str) -> float:
    try:
        value = scorer.score(seen_label, target_label)
    except Exception as exc:
        raise ScorerError(f"scorer failed for seen label {seen_label!r}: {exc}") from exc
    if isinstance(value, TokenLogprobs):
        return aggregate_logprobs(value)
    value = float(value)
    if value < 0:
        raise ScorerError(f"scorer returned negative raw score {value} for {seen_label!r}")
    return value


def score_distribution(scorer: AffinityScorer, seen_labels: list[str], target_label: str,
                       parallel: int = 1) -> AffinityDistribution:
    """Query the scorer once per seen label and normalize the raw values.

    Queries are independent by construction so they may run concurrently;
    results are keyed by label, never by completion order.
    """
    if not seen_labels:
        raise ValueError("seen_labels is empty")
    cleaned = [label.strip() for label in seen_labels]
    keys = [normalize_label(label) for label in cleaned]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"seen_labels contains duplicates after normalization: {dupes}")

    target = target_label.strip()
    if parallel > 1 and len(cleaned) > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            futures = {key: pool.submit(_raw_score, scorer, label, target)
                       for key, label in zip(keys, cleaned)}
            raw = {key: futures[key].result() for key in keys}
    else:
        raw = {key: _raw_score(scorer, label, target) for key, label in zip(keys, cleaned)}

    return normalized_distribution(raw, target)


def normalized_distribution(raw: dict[str, float], target_label: str) -> AffinityDistribution:
    """Divide each raw score by their sum, keeping `raw`'s order.

    If the sum is below ZERO_SCORE_FLOOR the distribution falls back to
    uniform with a RuntimeWarning.
    """
    total = math.fsum(raw.values())
    if total < ZERO_SCORE_FLOOR:
        warnings.warn(
            f"all raw scores for target {target_label!r} sum below {ZERO_SCORE_FLOOR}; "
            "falling back to a uniform distribution",
            RuntimeWarning,
        )
        entries = {key: 1.0 / len(raw) for key in raw}
    else:
        entries = {key: value / total for key, value in raw.items()}
    return AffinityDistribution(normalize_label(target_label), entries, raw)
