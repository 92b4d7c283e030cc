"""Episode metrics and batch reports.

Each attempted trial becomes one `EpisodeRow`, built once by `episode_row`:
its outcome, SPL term and path efficiency are computed there and nowhere
else. A batch's SR, SPL and PE are aggregated from its rows, and the four
CSV writers format the same rows, each distinct episode and plan step once per
call: rows that reuse one episode's objects share its text. `success_rate` and
`spl` are the per-result definitions the row aggregates are checked against.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .search_sim import EpisodeResult, Outcome


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


def path_efficiency(result: EpisodeResult) -> float | None:
    """Ideal over traversed length, capped at 1; None unless both lengths are positive."""
    p_s, p_i = result.ideal_length, result.traversed_length
    if p_s <= 0 or p_i <= 0:
        return None
    return p_s / max(p_i, p_s)


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
    detected: str | None = None  # the object whose detection ended the episode


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
                      path_efficiency(result), trace=result.steps, detected=result.detected)


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


# -- CSV serialization: UTF-8, "\n" line ends, floats as .10g, minimal quoting --
# Each writer streams its lines as strings, formatting each distinct episode's
# fields and each PlanStep's once per call. The memos key floats by identity,
# which the reports keep valid for the call: 0.0 == -0.0, but they print apart.

EPISODE_COLUMNS = ["method", "trial", "start", "host_object", "target_label", "seed",
                   "outcome", "traversed_m", "ideal_m", "spl_term", "pe", "pe_included",
                   "consumed", "steps", "error"]

SUMMARY_COLUMNS = ["method", "episodes", "sr", "spl", "pe_mean", "pe_std", "pe_excluded"]

# steps.csv's detection column at a trial's last step; every other outcome,
# and every earlier step, reads "none".
DETECTION_KINDS = {Outcome.FOUND.value: "true_positive",
                   Outcome.FOUND_FALSE.value: "false_positive"}

_needs_csv = re.compile(r'[,"\r\n]').search


def _field(text: str) -> str:
    """`text` as one CSV field; the csv module quotes any that may need it."""
    if _needs_csv(text) is None:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,))
    return buffer.getvalue()[:-1]


def _episode_key(row: EpisodeRow) -> tuple:
    """Fixes every byte of the row's outcome-through-trace text: strings by value,
    the rest by identity."""
    return (row.outcome, id(row.traversed_m), id(row.ideal_m), id(row.spl_term), id(row.pe),
            row.error, id(row.trace))


def _write_lines(path, header: list[str], lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _episode_lines(reports: list[BatchReport]):
    tails: dict[tuple, str] = {}
    for report in reports:
        method = _field(report.method)
        for row in report.rows:
            key = _episode_key(row)
            tail = tails.get(key)
            if tail is None:
                pe = "" if row.pe is None else f"{row.pe:.10g}"
                consumed = f"{row.trace[-1].cumulative:.10g}" if row.trace else "0"
                tail = tails[key] = (
                    f"{_field(row.outcome)},{row.traversed_m:.10g},{row.ideal_m:.10g},"
                    f"{row.spl_term:.10g},{pe},{int(row.pe is not None)},{consumed},"
                    f"{len(row.trace)},{_field(row.error)}\n")
            yield (f"{method},{row.trial},{_field(row.start)},{_field(row.host_object)},"
                   f"{_field(row.target_label)},{row.seed},{tail}")


def write_episode_csv(reports: list[BatchReport], path) -> None:
    """One row per trial; `consumed` and `steps` are read off the trace."""
    _write_lines(path, EPISODE_COLUMNS, _episode_lines(reports))


def write_summary_csv(reports: list[BatchReport], path) -> None:
    _write_lines(path, SUMMARY_COLUMNS, (
        f"{_field(r.method)},{r.episodes},{r.sr:.10g},{r.spl:.10g},{r.pe_mean:.10g},"
        f"{r.pe_std:.10g},{r.pe_excluded}\n"
        for r in reports))


def _step_lines(reports: list[BatchReport]):
    cells: dict[int, str] = {}  # id(PlanStep) -> "waypoint,leg_m,consumed"
    for report in reports:
        method = _field(report.method)
        for row in report.rows:
            head, last = f"{method},{row.trial},", len(row.trace) - 1
            for index, step in enumerate(row.trace):
                cell = cells.get(id(step))
                if cell is None:
                    cell = cells[id(step)] = (f"{_field(step.waypoint)},{step.leg_meters:.10g},"
                                              f"{step.cumulative:.10g}")
                # Only the last step can have triggered: a detection ends the episode.
                yield (f"{head}{index},{cell},none,\n" if index < last else
                       f"{head}{index},{cell},{DETECTION_KINDS.get(row.outcome, 'none')},"
                       f"{_field(row.detected or '')}\n")


def write_steps_csv(reports: list[BatchReport], path) -> None:
    """Episode traces, one record per visited waypoint."""
    _write_lines(path, ["method", "trial", "step", "waypoint", "leg_m", "consumed",
                        "detection", "instance_id"], _step_lines(reports))


def _long_lines(reports: list[BatchReport]):
    values: dict[tuple, tuple] = {}
    for report in reports:
        method = _field(report.method)
        for row in report.rows:
            key = _episode_key(row)
            row_values = values.get(key)
            if row_values is None:
                row_values = values[key] = (
                    int(row.outcome == Outcome.FOUND.value), f"{row.traversed_m:.10g}",
                    f"{row.ideal_m:.10g}", f"{row.spl_term:.10g}",
                    None if row.pe is None else f"{row.pe:.10g}")
            found, traversed, ideal, term, pe = row_values
            head = f"{method},{row.trial},"
            yield (f"{head}found,{found}\n{head}traversed_m,{traversed}\n"
                   f"{head}ideal_m,{ideal}\n{head}spl_term,{term}\n")
            if pe is not None:
                yield f"{head}pe,{pe}\n"


def write_long_csv(reports: list[BatchReport], path) -> None:
    """Plot-ready long format: one (method, trial, metric, value) row per datum."""
    _write_lines(path, ["method", "trial", "metric", "value"], _long_lines(reports))
