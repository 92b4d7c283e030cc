"""Seeded input generators for the three workloads.

Every generator takes a ``random.Random`` built from the run's ``--seed``; the
program under test only ever sees the documents and query tuples made here.

Maps are farm-like: stations of about seven waypoints laid on a grid 14 m
apart, each station a chain of waypoints 2.5 m apart with a few shortcuts,
stations joined by a spanning tree of corridors plus a few extra links. Edge
lengths are left out of the documents, so the loader uses Euclidean lengths.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

COLOURS = ["red", "blue", "green", "yellow", "black", "white", "orange", "grey"]
NOUNS = ["shovel", "rake", "hoe", "pitchfork", "wheelbarrow", "watering can", "hose reel",
         "water tap", "bucket", "trowel", "pruning shears", "hand saw", "hammer",
         "screwdriver", "pliers", "wrench", "bolt cutters", "ladder", "tarp", "feed sack",
         "seed tray", "fertilizer bag", "crate", "farm cart", "sprayer", "gloves",
         "hard hat", "toolbox", "tape measure", "extension cord", "sickle", "scythe"]
TARGETS = ["drill", "spade", "twine", "hedge trimmer", "egg basket", "oil can",
           "padlock", "headlamp"]


def label_pool(rng: random.Random) -> list[str]:
    """All 256 colour-noun labels in seeded order; callers pop to keep maps disjoint."""
    pool = [f"{c} {n}" for c in COLOURS for n in NOUNS]
    rng.shuffle(pool)
    return pool


def farm_graph(rng: random.Random, n_waypoints: int) -> tuple[list[dict], list[dict]]:
    n_stations = max(1, round(n_waypoints / 7))
    cols = math.ceil(math.sqrt(n_stations))
    sizes = [n_waypoints // n_stations + (1 if i < n_waypoints % n_stations else 0)
             for i in range(n_stations)]
    waypoints, pairs, stations = [], [], []
    for s, size in enumerate(sizes):
        cx, cy = (s % cols) * 14.0, (s // cols) * 14.0
        ids = [f"s{s:02d}w{j:02d}" for j in range(size)]
        for j, wid in enumerate(ids):
            waypoints.append({"id": wid,
                              "x": round(cx + (j % 3) * 2.5 + rng.uniform(-0.6, 0.6), 3),
                              "y": round(cy + (j // 3) * 2.5 + rng.uniform(-0.6, 0.6), 3)})
        pairs += list(zip(ids, ids[1:]))
        pairs += [tuple(rng.sample(ids, 2)) for _ in range(size // 3)]
        stations.append(ids)
    for s in range(1, n_stations):
        neighbours = [t for t in range(s)
                      if abs(t % cols - s % cols) + abs(t // cols - s // cols) == 1]
        pairs.append((rng.choice(stations[s]), rng.choice(stations[rng.choice(neighbours)])))
    for _ in range(n_stations // 3):
        s, t = rng.sample(range(n_stations), 2)
        pairs.append((rng.choice(stations[s]), rng.choice(stations[t])))
    seen, edges = set(), []
    for a, b in pairs:
        key = frozenset((a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append({"a": a, "b": b})
    return waypoints, edges


def query_map(rng: random.Random, pool: list[str], k: int) -> dict:
    """A 40-waypoint map whose objects sit at exactly k waypoints.

    Labels are popped from ``pool`` so no two maps share one, which makes each
    map's first ask of a target a full cache miss. Two labels appear twice, so
    the instance split is exercised.
    """
    waypoints, edges = farm_graph(rng, 40)
    hosts = sorted(rng.sample([w["id"] for w in waypoints], k))
    labels = [pool.pop() for _ in range(k + 2)]
    placed = [(labels[i], hosts[i]) for i in range(k)]
    placed += [(labels[k + i], rng.choice(hosts)) for i in range(2)]
    placed += [(labels[i], rng.choice(hosts)) for i in range(2)]
    objects = [{"instance_id": f"obj{i:03d}", "label": label, "waypoint": wid}
               for i, (label, wid) in enumerate(placed)]
    return {"waypoints": waypoints, "edges": edges, "objects": objects,
            "ground_truth": {"target_label": TARGETS[0], "host_object": "obj000"}}


@dataclass(frozen=True)
class Query:
    map_index: int
    k: int
    target: str
    start: str
    host: str


# Per scored-waypoint count k: (targets asked, asks per target). k <= 9 is
# exhaustive enumeration, k >= 10 branch and bound. The first ask of a target
# misses the LLM cache and the repeats hit it, so a round of 106 queries has
# 26 misses. Sorted by latency, the 82 hits below about 25 ms (k = 5, 6, 10
# and the faster bounded instances) come first, then the 27 hits at k = 7
# around rank 36-62, so the median sits inside that class, clear of its
# edges. Only the two k = 9 queries (about 2 s) are slower than the twelve at
# k = 8, so p90 sits among the k = 8 hits.
QUERY_MIX = {5: (4, 4), 6: (3, 4), 7: (9, 4), 8: (3, 4), 9: (1, 2), 10: (3, 4),
             11: (2, 4), 12: (2, 4)}
MAPS_PER_K = 2


def search_queries(rng: random.Random) -> tuple[list[dict], list[Query]]:
    pool = label_pool(rng)
    docs, queries = [], []
    for k, (targets, asks) in QUERY_MIX.items():
        n_maps = min(MAPS_PER_K, targets)
        first = len(docs)
        docs += [query_map(rng, pool, k) for _ in range(n_maps)]
        for t in range(targets):
            index = first + t % n_maps
            doc = docs[index]
            for _ in range(asks):
                queries.append(Query(index, k, TARGETS[t // n_maps],
                                     rng.choice(doc["waypoints"])["id"],
                                     rng.choice(doc["objects"])["instance_id"]))
    rng.shuffle(queries)
    return docs, queries


def load_map(rng: random.Random, n_waypoints: int, target: str) -> str:
    """A map-load document: objects at about one waypoint in eight, and a
    table scorer that gives positive affinity only to labels hosted at five
    waypoints (so the first plan covers at most five)."""
    waypoints, edges = farm_graph(rng, n_waypoints)
    ids = [w["id"] for w in waypoints]
    hosts = rng.sample(ids, max(6, n_waypoints // 8))
    hot, cold = hosts[:5], hosts[5:]
    nouns = rng.sample(NOUNS, len(NOUNS))
    hot_labels, cold_labels = nouns[:3], nouns[3:]
    objects = []
    for i, wid in enumerate(hot):
        objects.append({"instance_id": f"obj{len(objects):04d}",
                        "label": hot_labels[i % 3], "waypoint": wid})
    for wid in cold:
        objects.append({"instance_id": f"obj{len(objects):04d}",
                        "label": rng.choice(cold_labels), "waypoint": wid})
    table = {f"{label}|{target}": round(rng.uniform(0.2, 0.9), 3) for label in hot_labels}
    table["default"] = 0.0
    return json.dumps({
        "waypoints": waypoints, "edges": edges, "objects": objects,
        "ground_truth": {"target_label": target, "host_object": "obj0000"},
        "scorer": {"kind": "table", "table": table},
        "seed": rng.randrange(2 ** 32),
    })


# Documents per map-load round. Load time depends on the graph's structure as
# well as its size, so each class has several maps. Sorted by time, the 200
# class takes ranks 7-14 of 20, so the median sits in its middle; the 300
# class takes ranks 15-20, so p90 sits inside it.
LOAD_SIZES = (100,) * 6 + (200,) * 8 + (300,) * 6


def map_load_docs(rng: random.Random) -> list[tuple[int, str, str, str]]:
    """(waypoints, document text, target, start) per map-load operation."""
    out = []
    for n in LOAD_SIZES:
        target = rng.choice(TARGETS)
        text = load_map(rng, n, target)
        start = rng.choice(json.loads(text)["waypoints"])["id"]
        out.append((n, text, target, start))
    return out
