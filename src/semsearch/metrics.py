"""Episode metrics: success rate, SPL, and path efficiency, plus batch reports."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .search_sim import EpisodeResult, Outcome


def success_rate(results: list[EpisodeResult], attempts: int | None = None) -> float:
    """Fraction of attempts ending FOUND; every other outcome is a failure.

    `attempts` defaults to len(results); attempts beyond the results are
    trials that errored and count as failures.
    """
    attempts = len(results) if attempts is None else attempts
    if not attempts:
        raise ValueError("empty result batch")
    found = sum(1 for r in results if r.outcome is Outcome.FOUND)
    return found / attempts


def spl_term(result: EpisodeResult) -> float:
    """One episode's SPL contribution: S_i * p_s / max(p_i, p_s)."""
    success = 1.0 if result.outcome is Outcome.FOUND else 0.0
    p_s, p_i = result.ideal_length, result.traversed_length
    if p_s < 0:
        raise ValueError(f"negative ideal length {p_s}")
    if p_s == 0.0:
        return success  # target at the start waypoint; path ratio is undefined
    return success * p_s / max(p_i, p_s)


def spl(results: list[EpisodeResult], attempts: int | None = None) -> float:
    """Mean SPL term over attempts; errored trials beyond the results add 0."""
    attempts = len(results) if attempts is None else attempts
    if not attempts:
        raise ValueError("empty result batch")
    return math.fsum(spl_term(r) for r in results) / attempts


def path_efficiency(result: EpisodeResult) -> float:
    """Ideal over traversed length, capped at 1. Requires both lengths positive."""
    p_s, p_i = result.ideal_length, result.traversed_length
    if p_s <= 0:
        raise ValueError(f"path efficiency undefined for ideal length {p_s}")
    if p_i <= 0:
        raise ValueError(f"path efficiency undefined for traversed length {p_i}")
    return p_s / max(p_i, p_s)


def pe_defined(result: EpisodeResult) -> bool:
    return result.ideal_length > 0 and result.traversed_length > 0


class TrialRecord(NamedTuple):
    """One attempted trial: its sampling context, then its result or its error."""

    trial: int
    start: str
    host_object: str
    target_label: str
    seed: int
    result: EpisodeResult | None   # None when the trial raised
    error: str = ""


@dataclass(frozen=True)
class EpisodeRow:
    """One trial's report row; the defaults are those of a trial that raised."""

    trial: int
    start: str
    host_object: str
    target_label: str
    seed: int
    outcome: str = "error"
    traversed_m: float = 0.0
    ideal_m: float = 0.0
    spl_term: float = 0.0
    pe: float | None = None  # None when excluded from PE aggregates
    consumed: float = 0.0
    steps: int = 0
    error: str = ""
    trace: tuple = ()        # per-step records; not part of the episode CSV row


@dataclass(frozen=True)
class BatchReport:
    method: str
    episodes: int
    sr: float
    spl: float
    pe_mean: float
    pe_std: float
    pe_excluded: int       # episodes without a path ratio: undefined or errored
    rows: tuple[EpisodeRow, ...]


def episode_row(record: TrialRecord) -> EpisodeRow:
    """The report row of one attempted trial."""
    result = record.result
    context = (record.trial, record.start, record.host_object, record.target_label,
               record.seed)
    if result is None:
        return EpisodeRow(*context, error=record.error)
    return EpisodeRow(
        *context,
        outcome=result.outcome.value,
        traversed_m=result.traversed_length,
        ideal_m=result.ideal_length,
        spl_term=spl_term(result),
        pe=path_efficiency(result) if pe_defined(result) else None,
        consumed=result.steps[-1].consumed if result.steps else 0.0,
        steps=len(result.steps),
        trace=result.steps,
    )


def build_report(method: str, records: list[TrialRecord]) -> BatchReport:
    """Aggregate a batch over every attempted trial, rows in the given order.

    A trial that raised is a failed attempt in SR and SPL and has no PE.
    """
    rows = tuple(episode_row(record) for record in records)
    results = [record.result for record in records if record.result is not None]
    pe_values = [row.pe for row in rows if row.pe is not None]
    pe_mean = math.fsum(pe_values) / len(pe_values) if pe_values else 0.0
    # Population standard deviation: deterministic and well defined for N=1.
    pe_std = math.sqrt(math.fsum((v - pe_mean) ** 2 for v in pe_values) / len(pe_values)) if pe_values else 0.0
    attempts = len(records)
    return BatchReport(
        method=method,
        episodes=attempts,
        sr=success_rate(results, attempts) if attempts else 0.0,
        spl=spl(results, attempts) if attempts else 0.0,
        pe_mean=pe_mean,
        pe_std=pe_std,
        pe_excluded=attempts - len(pe_values),
        rows=rows,
    )


# -- CSV serialization ----------------------------------------------------------

EPISODE_COLUMNS = ["method", "trial", "start", "host_object", "target_label", "seed",
                   "outcome", "traversed_m", "ideal_m", "spl_term", "pe", "pe_included",
                   "consumed", "steps", "error"]

SUMMARY_COLUMNS = ["method", "episodes", "sr", "spl", "pe_mean", "pe_std", "pe_excluded"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_episode_csv(reports: list[BatchReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPISODE_COLUMNS)
        for report in reports:
            for row in report.rows:
                writer.writerow([
                    report.method, row.trial, row.start, row.host_object, row.target_label,
                    row.seed, row.outcome, _fmt(row.traversed_m), _fmt(row.ideal_m),
                    _fmt(row.spl_term), _fmt(row.pe) if row.pe is not None else "",
                    int(row.pe is not None), _fmt(row.consumed), row.steps, row.error,
                ])


def write_summary_csv(reports: list[BatchReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for r in reports:
            writer.writerow([r.method, r.episodes, _fmt(r.sr), _fmt(r.spl),
                             _fmt(r.pe_mean), _fmt(r.pe_std), r.pe_excluded])


def write_steps_csv(reports: list[BatchReport], path) -> None:
    """Episode traces, one record per visited waypoint."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "trial", "step", "waypoint", "leg_m", "consumed",
                         "detection", "instance_id"])
        for report in reports:
            for row in report.rows:
                for index, step in enumerate(row.trace):
                    writer.writerow([
                        report.method, row.trial, index, step.waypoint,
                        _fmt(step.leg_meters), _fmt(step.consumed),
                        step.detection.kind, step.detection.instance_id or "",
                    ])


def write_long_csv(reports: list[BatchReport], path) -> None:
    """Plot-ready long format: one (method, trial, metric, value) row per datum."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "trial", "metric", "value"])
        for report in reports:
            for row in report.rows:
                writer.writerow([report.method, row.trial, "found",
                                 int(row.outcome == Outcome.FOUND.value)])
                writer.writerow([report.method, row.trial, "traversed_m", _fmt(row.traversed_m)])
                writer.writerow([report.method, row.trial, "ideal_m", _fmt(row.ideal_m)])
                writer.writerow([report.method, row.trial, "spl_term", _fmt(row.spl_term)])
                if row.pe is not None:
                    writer.writerow([report.method, row.trial, "pe", _fmt(row.pe)])
