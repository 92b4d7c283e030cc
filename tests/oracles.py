"""Independent brute-force oracles used to pin expected values in tests.

These deliberately re-derive results from first principles (path enumeration,
full permutation scans) instead of calling the library code they check.
"""

from __future__ import annotations

import itertools
import math


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
