"""Output checks made apart from the program under test.

Distances come from scipy's Dijkstra over the document's own edge list, plan
optimality from a Held-Karp dynamic program written here, and SR / SPL / PE
from the CSV files as written. Nothing here calls into ``semsearch`` except to
read the values being checked. A failed check raises ``CheckError``.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

TOL = 1e-9


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Distances:
    """All-pairs shortest paths of a scenario document, by Dijkstra."""

    def __init__(self, doc: dict):
        self.ids = [w["id"] for w in doc["waypoints"]]
        self.index = {wid: i for i, wid in enumerate(self.ids)}
        pos = {w["id"]: (w["x"], w["y"]) for w in doc["waypoints"]}
        rows, cols, lengths = [], [], []
        for e in doc["edges"]:
            length = e.get("length", math.dist(pos[e["a"]], pos[e["b"]]))
            for a, b in ((e["a"], e["b"]), (e["b"], e["a"])):
                rows.append(self.index[a])
                cols.append(self.index[b])
                lengths.append(length)
        n = len(self.ids)
        graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))
        self.matrix = dijkstra(graph, directed=True)
        require(np.isfinite(self.matrix).all(), "generated graph is disconnected")
        self.diameter = float(self.matrix.max())

    def __call__(self, a: str, b: str) -> float:
        return float(self.matrix[self.index[a], self.index[b]])


def check_environment(env, dist: Distances) -> None:
    """Every pairwise ``Environment.distance`` and the normalizer."""
    require(sorted(env.waypoints) == sorted(dist.ids), "waypoint set differs from document")
    ids = dist.ids
    got = np.array([[env.distance(a, b) for b in ids] for a in ids])
    bad = ~np.isclose(got, dist.matrix, rtol=TOL, atol=TOL)
    require(not bad.any(), f"{int(bad.sum())} Environment.distance values disagree with Dijkstra")
    require(close(env.max_pairwise_distance, dist.diameter),
            f"max_pairwise_distance {env.max_pairwise_distance} != {dist.diameter}")


# -- plans ----------------------------------------------------------------------

def plan_cost(dist: Distances, start: str, sequence, scores: dict[str, float],
              weight: float, norm: float) -> float:
    legs, gain, previous = 0.0, 0.0, start
    for rank, wid in enumerate(sequence, 1):
        legs += dist(previous, wid) / norm
        gain += scores[wid] / rank
        previous = wid
    return legs - weight * gain


def optimal_cost(dist: Distances, start: str, scores: dict[str, float],
                 weight: float, norm: float) -> float:
    """Held-Karp over (visited set, last waypoint).

    The score discount depends only on the visit rank, which is the size of
    the visited set, so the cost-to-go of a state does not depend on the path
    that reached it and the DP is exact.
    """
    nodes = sorted(w for w, s in scores.items() if s > 0)
    n = len(nodes)
    idx = [dist.index[w] for w in nodes]
    legs = dist.matrix[np.ix_(idx, idx)] / norm
    gain = np.array([scores[w] for w in nodes])
    best = np.full((1 << n, n), np.inf)
    for j in range(n):
        best[1 << j, j] = dist(start, nodes[j]) / norm - weight * gain[j]
    bits = [1 << j for j in range(n)]
    for mask in range(1, 1 << n):
        row = best[mask]
        if not np.isfinite(row).any():
            continue
        rank = bin(mask).count("1") + 1
        step = (row[:, None] + legs).min(axis=0) - weight * gain / rank
        for j in range(n):
            if not mask & bits[j]:
                target = mask | bits[j]
                if step[j] < best[target, j]:
                    best[target, j] = step[j]
    return float(best[(1 << n) - 1].min())


def check_plan(plan, dist: Distances, scores: dict[str, float], weight: float,
               norm: float, optimal: bool) -> None:
    """Cost from the formula; with ``optimal``, also against Held-Karp."""
    positive = sorted(w for w, s in scores.items() if s > 0)
    require(sorted(plan.sequence) == positive,
            f"plan from {plan.start} does not visit each scored waypoint once")
    cost = plan_cost(dist, plan.start, plan.sequence, scores, weight, norm)
    require(close(cost, plan.cost), f"plan cost {plan.cost} != recomputed {cost}")
    if optimal:
        best = optimal_cost(dist, plan.start, scores, weight, norm)
        require(cost <= best + 1e-9, f"plan cost {cost} above the optimum {best}")


def label_key(label: str) -> str:
    return label.strip().lower()


def table_probability(table: dict, labels, target: str) -> dict[str, float]:
    """Normalized affinities of ``labels`` from a scenario's affinity table."""
    entries = {tuple(label_key(part) for part in k.split("|", 1)): v
               for k, v in table.items() if k != "default"}
    raw = {label_key(label): entries.get((label_key(label), label_key(target)),
                                         table.get("default", 0.0))
           for label in labels}
    total = math.fsum(raw.values())
    return {label: value / total for label, value in raw.items()}


def waypoint_scores(doc: dict, probability: dict[str, float]) -> dict[str, float]:
    """Per-waypoint score: each label's probability split over its instances."""
    count = defaultdict(int)
    for o in doc["objects"]:
        count[label_key(o["label"])] += 1
    out = defaultdict(float)
    for o in doc["objects"]:
        key = label_key(o["label"])
        out[o["waypoint"]] += probability[key] / count[key]
    return dict(out)


# -- episodes -------------------------------------------------------------------

def check_episode(result, dist: Distances, start: str, sequence, host_wp: str) -> None:
    """A perfect-perception episode: legs, lengths and outcome."""
    visited = [s.waypoint for s in result.steps]
    require(tuple(visited) == tuple(sequence[:len(visited)]), "episode left its plan")
    path = [start] + visited
    legs = [dist(a, b) for a, b in zip(path, path[1:])]
    for step, leg in zip(result.steps, legs):
        require(close(step.leg_meters, leg), f"leg {step.leg_meters} != {leg}")
    require(close(result.traversed_length, math.fsum(legs)), "traversed length")
    require(close(result.ideal_length, dist(start, host_wp)), "ideal length")
    found = host_wp in visited
    require((result.outcome.value == "found") == found,
            f"outcome {result.outcome.value} but host visited={found}")


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def check_bench_csvs(out_dir: Path, dist: Distances, host_wp: dict[str, str],
                     trials: int, methods) -> dict[str, set[tuple[str, ...]]]:
    """Recompute SR, SPL and PE from episodes.csv and the traversed lengths
    from steps.csv; check them against summary.csv.

    Returns every distinct losae visit sequence per start, for the plan check
    made after the timed phase.
    """
    with open(out_dir / "episodes.csv", newline="") as fh:
        episodes = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = {row["method"]: row for row in csv.DictReader(fh)}
    legs = defaultdict(list)
    with open(out_dir / "steps.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            legs[(row["method"], row["trial"])].append((row["waypoint"], float(row["leg_m"])))
    require(sorted(summary) == sorted(methods), f"summary methods {sorted(summary)}")
    by_method = defaultdict(list)
    losae_paths = defaultdict(set)
    for row in episodes:
        by_method[row["method"]].append(row)
    for method in methods:
        rows = by_method[method]
        require(len(rows) == trials and int(summary[method]["episodes"]) == trials,
                f"{method}: {len(rows)} rows, {summary[method]['episodes']} reported, "
                f"{trials} attempted")
        spl_terms, pes, found = [], [], 0
        for row in rows:
            require(not row["error"], f"{method} trial {row['trial']}: {row['error']}")
            ideal = dist(row["start"], host_wp[row["host_object"]])
            require(close(float(row["ideal_m"]), ideal, 1e-8), f"ideal_m {row['ideal_m']} != {ideal}")
            path = legs[(method, row["trial"])]
            position, total = row["start"], []
            for wid, leg in path:
                require(close(leg, dist(position, wid), 1e-8), f"leg_m {leg} != Dijkstra")
                total.append(leg)
                position = wid
            traversed = math.fsum(total)
            if method == "losae":
                losae_paths[row["start"]].add(tuple(wid for wid, _ in path))
            require(close(float(row["traversed_m"]), traversed, 1e-8),
                    f"{method} trial {row['trial']}: traversed_m != sum of leg_m")
            require(int(row["steps"]) == len(path), "step count")
            success = row["outcome"] == "found"
            found += success
            ratio = ideal / max(traversed, ideal) if ideal > 0 else 1.0
            spl_terms.append(ratio if success else 0.0)
            if ideal > 0 and traversed > 0:
                pes.append(ideal / max(traversed, ideal))
        sr, spl, pe = found / trials, _mean(spl_terms), _mean(pes)
        s = summary[method]
        require(close(float(s["sr"]), sr, 1e-8), f"{method}: SR {s['sr']} != {sr}")
        require(close(float(s["spl"]), spl, 1e-8), f"{method}: SPL {s['spl']} != {spl}")
        require(close(float(s["pe_mean"]), pe, 1e-8), f"{method}: PE {s['pe_mean']} != {pe}")
        require(int(s["pe_excluded"]) == trials - len(pes), f"{method}: pe_excluded")
        require(spl <= sr + 1e-12, f"{method}: SPL {spl} > SR {sr}")
        require(all(0.0 < v <= 1.0 for v in pes), f"{method}: PE outside (0, 1]")
    pe_mean = {m: float(summary[m]["pe_mean"]) for m in methods}
    require(pe_mean["losae"] > pe_mean["room_search"]
            > max(pe_mean["hottest_object"], pe_mean["hottest_waypoint"]),
            f"method ordering on pe_mean does not hold: {pe_mean}")
    return losae_paths
