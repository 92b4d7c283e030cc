"""Episode metrics and batch reports.

Each attempted trial becomes one `EpisodeRow`, built once by `episode_row`:
its outcome, SPL term and path efficiency are computed there and nowhere
else. A batch's SR, SPL and PE are aggregated from its rows, and the four
CSV writers format the same rows. `success_rate` and `spl` are the
per-result definitions the row aggregates are checked against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .search_sim import NO_DETECTION, DetectionOutcome, EpisodeResult, Outcome


def success_rate(results: list[EpisodeResult]) -> float:
    """Fraction of results ending FOUND; every other outcome is a failure."""
    if not results:
        raise ValueError("empty result batch")
    found = sum(1 for r in results if r.outcome is Outcome.FOUND)
    return found / len(results)


def spl_term(result: EpisodeResult) -> float:
    """One episode's SPL contribution: S_i * p_s / max(p_i, p_s)."""
    success = 1.0 if result.outcome is Outcome.FOUND else 0.0
    p_s, p_i = result.ideal_length, result.traversed_length
    if p_s < 0:
        raise ValueError(f"negative ideal length {p_s}")
    if p_s == 0.0:
        return success  # target at the start waypoint; path ratio is undefined
    return success * p_s / max(p_i, p_s)


def spl(results: list[EpisodeResult]) -> float:
    """Mean SPL term over the results."""
    if not results:
        raise ValueError("empty result batch")
    return math.fsum(spl_term(r) for r in results) / len(results)


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


class EpisodeRow(NamedTuple):
    """One attempted trial's report row; the defaults are those of a trial that raised."""

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
    error: str = ""
    trace: tuple = ()        # the walked prefix of the plan's PlanSteps
    detection: DetectionOutcome = NO_DETECTION  # the last step's detection


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


def episode_row(trial: int, start: str, host_object: str, target_label: str, seed: int,
                result: EpisodeResult | None, error: str = "") -> EpisodeRow:
    """The report row of one attempted trial; `result` is None when it raised."""
    if result is None:
        return EpisodeRow(trial, start, host_object, target_label, seed, error=error)
    return EpisodeRow(trial, start, host_object, target_label, seed, result.outcome.value,
                      result.traversed_length, result.ideal_length, spl_term(result),
                      path_efficiency(result) if pe_defined(result) else None,
                      trace=result.steps, detection=result.detection)


def build_report(method: str, rows: list[EpisodeRow]) -> BatchReport:
    """Aggregate a batch over every attempted trial, rows in the given order.

    A trial that raised is a failed attempt in SR and SPL and has no PE.
    """
    rows = tuple(rows)
    attempts = len(rows)
    found = sum(1 for row in rows if row.outcome == Outcome.FOUND.value)
    pe_values = [row.pe for row in rows if row.pe is not None]
    pe_mean = math.fsum(pe_values) / len(pe_values) if pe_values else 0.0
    # Population standard deviation: deterministic and well defined for N=1.
    pe_std = math.sqrt(math.fsum((v - pe_mean) ** 2 for v in pe_values) / len(pe_values)) if pe_values else 0.0
    return BatchReport(
        method=method,
        episodes=attempts,
        sr=found / attempts if attempts else 0.0,
        spl=math.fsum(row.spl_term for row in rows) / attempts if attempts else 0.0,
        pe_mean=pe_mean,
        pe_std=pe_std,
        pe_excluded=attempts - len(pe_values),
        rows=rows,
    )


# -- CSV serialization: floats as .10g ------------------------------------------

EPISODE_COLUMNS = ["method", "trial", "start", "host_object", "target_label", "seed",
                   "outcome", "traversed_m", "ideal_m", "spl_term", "pe", "pe_included",
                   "consumed", "steps", "error"]

SUMMARY_COLUMNS = ["method", "episodes", "sr", "spl", "pe_mean", "pe_std", "pe_excluded"]


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_episode_csv(reports: list[BatchReport], path) -> None:
    """One row per trial; `consumed` and `steps` are read off the trace."""
    _write_csv(path, EPISODE_COLUMNS, (
        (report.method, row.trial, row.start, row.host_object, row.target_label, row.seed,
         row.outcome, f"{row.traversed_m:.10g}", f"{row.ideal_m:.10g}",
         f"{row.spl_term:.10g}", "" if row.pe is None else f"{row.pe:.10g}",
         int(row.pe is not None), f"{row.trace[-1].cumulative:.10g}" if row.trace else "0",
         len(row.trace), row.error)
        for report in reports for row in report.rows))


def write_summary_csv(reports: list[BatchReport], path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, (
        (r.method, r.episodes, f"{r.sr:.10g}", f"{r.spl:.10g}", f"{r.pe_mean:.10g}",
         f"{r.pe_std:.10g}", r.pe_excluded)
        for r in reports))


def _step_rows(reports: list[BatchReport]):
    for report in reports:
        method = report.method
        for row in report.rows:
            trial, last = row.trial, len(row.trace) - 1
            for index, step in enumerate(row.trace):
                # Only the last step can have triggered: a detection ends the episode.
                detection = row.detection if index == last else NO_DETECTION
                yield (method, trial, index, step.waypoint, f"{step.leg_meters:.10g}",
                       f"{step.cumulative:.10g}", detection.kind, detection.instance_id or "")


def write_steps_csv(reports: list[BatchReport], path) -> None:
    """Episode traces, one record per visited waypoint."""
    _write_csv(path, ["method", "trial", "step", "waypoint", "leg_m", "consumed",
                      "detection", "instance_id"], _step_rows(reports))


def _long_rows(reports: list[BatchReport]):
    for report in reports:
        method = report.method
        for row in report.rows:
            trial = row.trial
            yield method, trial, "found", int(row.outcome == Outcome.FOUND.value)
            yield method, trial, "traversed_m", f"{row.traversed_m:.10g}"
            yield method, trial, "ideal_m", f"{row.ideal_m:.10g}"
            yield method, trial, "spl_term", f"{row.spl_term:.10g}"
            if row.pe is not None:
                yield method, trial, "pe", f"{row.pe:.10g}"


def write_long_csv(reports: list[BatchReport], path) -> None:
    """Plot-ready long format: one (method, trial, metric, value) row per datum."""
    _write_csv(path, ["method", "trial", "metric", "value"], _long_rows(reports))
