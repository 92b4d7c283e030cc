"""Independent brute-force oracles used to pin expected values in tests.

These deliberately re-derive results from first principles (path enumeration,
full permutation scans) instead of calling the library code they check. The
CSV writers at the end are the reference for `semsearch.metrics`'s: one
`csv.writer` row per record, every field converted on every row.
"""

from __future__ import annotations

import csv
import itertools
import math
import random

from semsearch.metrics import DETECTION_KINDS, EPISODE_COLUMNS, SUMMARY_COLUMNS, BatchReport
from semsearch.search_sim import Outcome


def simple_path_distance(edges: list[tuple[str, str, float]], a: str, b: str) -> float:
    """Shortest distance over an exhaustive enumeration of simple paths."""
    if a == b:
        return 0.0
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for u, v, w in edges:
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    best = math.inf

    def walk(node: str, seen: set[str], total: float) -> None:
        nonlocal best
        if node == b:
            best = min(best, total)
            return
        for nxt, w in adjacency.get(node, []):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + w)

    walk(a, {a}, 0.0)
    return best


def all_pairs_floyd_warshall(nodes, edges: list[tuple[str, str, float]]) -> dict[str, dict[str, float]]:
    """All-pairs shortest distances by the textbook O(V^3) triple loop."""
    ids = sorted(nodes)
    dist = {a: {b: math.inf for b in ids} for a in ids}
    for a in ids:
        dist[a][a] = 0.0
    for a, b, w in edges:
        if w < dist[a][b]:
            dist[a][b] = w
            dist[b][a] = w
    for k in ids:
        dk = dist[k]
        for i in ids:
            dik = dist[i][k]
            if not math.isfinite(dik):
                continue
            di = dist[i]
            for j in ids:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def eq3_cost(distance, start: str, sequence, scores: dict[str, float],
             weight: float, normalizer: float) -> float:
    """Plan cost written out longhand: normalized legs minus discounted scores."""
    total_legs = 0.0
    previous = start
    for waypoint in sequence:
        total_legs += distance(previous, waypoint) / normalizer
        previous = waypoint
    total_scores = 0.0
    for rank, waypoint in enumerate(sequence, start=1):
        total_scores += scores[waypoint] / rank
    return total_legs - weight * total_scores


def best_permutation(distance, start: str, waypoints, scores: dict[str, float],
                     weight: float, normalizer: float) -> tuple[float, tuple[str, ...]]:
    """Minimum-cost visiting order by scanning every permutation.

    Permutations are scanned in lexicographic order and only strictly better
    costs replace the incumbent, so ties resolve to the smallest sequence.
    """
    best_cost = math.inf
    best_seq: tuple[str, ...] = tuple()
    for perm in itertools.permutations(sorted(waypoints)):
        cost = eq3_cost(distance, start, perm, scores, weight, normalizer)
        if cost < best_cost:
            best_cost = cost
            best_seq = perm
    return best_cost, best_seq


def reference_episode(plan, objects, distance, host: str, tpr: float, fpr: float,
                      seed: int) -> tuple[str, str | None, list[str], float]:
    """One episode walked longhand: (outcome, detected object, walked waypoints,
    meters walked).

    `objects` holds (instance_id, waypoint) pairs. The episode walks the plan's
    sequence from its start. At each waypoint every object, in instance-id
    order, takes the next `random()` of one `random.Random(seed)` and triggers
    when that draw is below its rate: `tpr` for `host`, `fpr` for any other.
    After a waypoint with no trigger the episode is lost once the walked
    waypoints' scores reach 95 % of the plan's total mass.
    """
    rng = random.Random(seed)
    at: dict[str, list[str]] = {}
    for instance_id, waypoint in sorted(objects):
        at.setdefault(waypoint, []).append(instance_id)
    walked: list[str] = []
    mass = meters = 0.0
    previous = plan.start
    for step in plan.per_step:
        waypoint = step.waypoint
        walked.append(waypoint)
        meters += distance(previous, waypoint)
        previous = waypoint
        for instance_id in at.get(waypoint, []):
            if rng.random() < (tpr if instance_id == host else fpr):
                outcome = "found" if instance_id == host else "found_false"
                return outcome, instance_id, walked, meters
        mass += step.score
        if mass >= 0.95 * plan.total_mass:
            return "lost", None, walked, meters
    return "exhausted", None, walked, meters


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
            # Only the last step can have triggered: a detection ends the episode.
            ending = DETECTION_KINDS.get(row.outcome, "none"), row.detected or ""
            for index, step in enumerate(row.trace):
                kind, instance_id = ending if index == last else ("none", "")
                yield (method, trial, index, step.waypoint, f"{step.leg_meters:.10g}",
                       f"{step.cumulative:.10g}", kind, instance_id)


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
