"""Span recording around the calls into each ``semsearch`` module, and the
per-layer metrics derived from the spans.

The tracer wraps module-level names (``semsearch.cli.plan_optimal``,
``semsearch.planner.plan_optimal`` ...) and a few methods from the
benchmark's side; nothing inside the package changes. A span is
``[id, parent, op, name, start_ns, end_ns, attrs]`` and spans of one
operation share ``op``. Spans stay in memory and are written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import requests

from semsearch import affinity, baselines, cli, env_graph, metrics, planner, search_sim
from semsearch.env_graph import Environment
from semsearch.llm_gateway import LLMGateway, ResponseCache

ID, PARENT, OP, NAME, START, END, ATTRS = range(7)

# (name, unit, better) of every per-layer metric, in the order printed.
PER_LAYER = [
    ("env_graph.load_ms.w100", "ms", "lower"),
    ("env_graph.load_ms.w200", "ms", "lower"),
    ("env_graph.load_ms.w300", "ms", "lower"),
    ("env_graph.distance_calls", "count", "lower"),
    *[(f"planner.plan_ms.k{k:02d}", "ms", "lower") for k in range(5, 13)],
    ("planner.plans", "count", "lower"),
    ("planner.exhaustive_plans", "count", "lower"),
    ("planner.bounded_plans", "count", "lower"),
    ("baselines.room_plan_ms", "ms", "lower"),
    ("baselines.hottest_plan_ms", "ms", "lower"),
    ("affinity.score_ms.miss", "ms", "lower"),
    ("affinity.score_ms.hit", "ms", "lower"),
    ("affinity.labels_scored", "count", "lower"),
    ("llm_gateway.requests_sent", "count", "lower"),
    ("llm_gateway.cache_hits", "count", "higher"),
    ("llm_gateway.cache_misses", "count", "lower"),
    ("llm_gateway.lookups", "count", "lower"),
    ("llm_gateway.hit_ratio", "ratio", "higher"),
    ("llm_gateway.miss_overhead_ms", "ms", "lower"),
    ("llm_gateway.hit_ms", "ms", "lower"),
    ("llm_gateway.cache_bytes", "bytes", "lower"),
    ("llm_gateway.retries", "count", "lower"),
    ("search_sim.episode_us", "us", "lower"),
    ("search_sim.episodes", "count", "higher"),
    ("search_sim.steps", "count", "lower"),
    ("metrics.report_ms", "ms", "lower"),
    ("metrics.csv_ms", "ms", "lower"),
    ("metrics.csv_bytes", "bytes", "lower"),
    ("cli.run_bench_self_ms", "ms", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.distance_calls: dict[int, int] = {}
        self._distance_count = [0]
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._distance_count[0] = 0

    def end_op(self) -> None:
        self.distance_calls[self.op] = self._distance_count[0]
        self.op = -1

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        rec = [len(self.spans), parent, self.op, name, time.perf_counter_ns(), 0, attrs or {}]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``annotate(attrs, args, result)``
        records what the span did."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(rec)
            if annotate is not None:
                annotate(rec[ATTRS], args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def install(self) -> None:
        def k_mode(attrs, args, plan):
            attrs["k"] = len(plan.sequence)
            attrs["mode"] = plan.mode

        def cache_lookup(attrs, args, value):
            if self.stack:  # the enclosing llm_gateway.complete span
                self.stack[-1][ATTRS]["hit"] = value is not None

        for owner in (planner, cli, baselines):
            self.wrap(owner, "plan_optimal", "planner.plan_optimal", k_mode)
        for owner in (planner, cli):
            self.wrap(owner, "waypoint_scores", "planner.waypoint_scores")
        for owner in (affinity, cli):
            self.wrap(owner, "score_distribution", "affinity.score_distribution",
                      lambda attrs, args, dist: attrs.update(labels=len(dist.entries)))
        for owner in (search_sim, cli):
            self.wrap(owner, "run_episode", "search_sim.run_episode",
                      lambda attrs, args, result: attrs.update(steps=len(result.steps)))
        self.wrap(env_graph, "parse_scenario", "env_graph.parse_scenario",
                  lambda attrs, args, cfg: attrs.update(n=len(cfg.env.waypoints)))
        for attr in ("plan_room_search", "hottest_object_plan", "hottest_waypoint_plan",
                     "room_scores", "similarity_rank"):
            self.wrap(baselines, attr, f"baselines.{attr}")
        self.wrap(metrics, "build_report", "metrics.build_report")
        for attr in ("write_episode_csv", "write_summary_csv", "write_steps_csv",
                     "write_long_csv"):
            self.wrap(metrics, attr, "metrics.write_csv",
                      lambda attrs, args, _: attrs.update(bytes=os.path.getsize(args[1])))
        for attr in ("run_bench", "run_batch", "compute_artifacts"):
            self.wrap(cli, attr, f"cli.{attr}")
        self.wrap(LLMGateway, "complete", "llm_gateway.complete")
        self.wrap(ResponseCache, "lookup", "llm_gateway.cache_lookup", cache_lookup)
        self.wrap(requests.Session, "post", "llm_gateway.http_post")

        original_distance = Environment.distance
        count = self._distance_count

        def counted_distance(env, a, b):
            count[0] += 1
            return original_distance(env, a, b)

        self._patches.append((Environment, "distance", original_distance))
        Environment.distance = counted_distance

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _ms(rec) -> float:
    return (rec[END] - rec[START]) / 1e6


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def derive(tracer: Tracer, ops: list[int], rounds: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    Times are medians over spans (``*_ms`` / ``*_us``) or over operations
    (``metrics.*``, ``cli.run_bench_self_ms``); counts are per round, except
    ``env_graph.distance_calls``, which is per operation. A layer that did no
    work in this workload reads 0. ``extra`` carries per-round means of what
    the workload counted outside the spans (requests at the stub, cache
    bytes, stub delay).
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for rec in tracer.spans:
        by_name[rec[NAME]].append(rec)
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(rec)
    out: dict[str, float] = {}

    loads = by_name["env_graph.parse_scenario"]
    for n in (100, 200, 300):
        out[f"env_graph.load_ms.w{n}"] = _p50(_ms(r) for r in loads if r[ATTRS]["n"] == n)
    out["env_graph.distance_calls"] = _p50(tracer.distance_calls.get(op, 0) for op in ops)

    plans = by_name["planner.plan_optimal"]
    for k in range(5, 13):
        out[f"planner.plan_ms.k{k:02d}"] = _p50(_ms(r) for r in plans if r[ATTRS]["k"] == k)
    out["planner.plans"] = len(plans) / rounds
    out["planner.exhaustive_plans"] = sum(r[ATTRS]["mode"] == "exhaustive" for r in plans) / rounds
    out["planner.bounded_plans"] = sum(r[ATTRS]["mode"] == "bounded" for r in plans) / rounds

    out["baselines.room_plan_ms"] = _p50(_ms(r) for r in by_name["baselines.plan_room_search"])
    out["baselines.hottest_plan_ms"] = _p50(
        _ms(r) for r in by_name["baselines.hottest_object_plan"] + by_name["baselines.hottest_waypoint_plan"])

    completes = by_name["llm_gateway.complete"]
    hits = [r for r in completes if r[ATTRS].get("hit")]
    misses = [r for r in completes if r[ATTRS].get("hit") is False]
    scored = by_name["affinity.score_distribution"]

    def missed(rec) -> bool:
        return any(c[ATTRS].get("hit") is False for c in _descendants(children, rec))

    llm_scored = [r for r in scored if any(c[NAME] == "llm_gateway.complete"
                                           for c in _descendants(children, r))]
    out["affinity.score_ms.miss"] = _p50(_ms(r) for r in llm_scored if missed(r))
    out["affinity.score_ms.hit"] = _p50(_ms(r) for r in llm_scored if not missed(r))
    out["affinity.labels_scored"] = sum(r[ATTRS]["labels"] for r in scored) / rounds

    lookups = len(hits) + len(misses)
    out["llm_gateway.requests_sent"] = extra.get("requests_sent", 0)
    out["llm_gateway.cache_hits"] = len(hits) / rounds
    out["llm_gateway.cache_misses"] = len(misses) / rounds
    out["llm_gateway.lookups"] = lookups / rounds
    out["llm_gateway.hit_ratio"] = len(hits) / lookups if lookups else 0.0
    out["llm_gateway.miss_overhead_ms"] = (
        _p50(_ms(r) for r in misses) - extra.get("stub_delay_ms", 0.0) if misses else 0.0)
    out["llm_gateway.hit_ms"] = _p50(_ms(r) for r in hits)
    out["llm_gateway.cache_bytes"] = extra.get("cache_bytes", 0)
    out["llm_gateway.retries"] = (len(by_name["llm_gateway.http_post"]) - len(misses)) / rounds

    episodes = by_name["search_sim.run_episode"]
    out["search_sim.episode_us"] = _p50(_ms(r) * 1000.0 for r in episodes)
    out["search_sim.episodes"] = len(episodes) / rounds
    out["search_sim.steps"] = sum(r[ATTRS]["steps"] for r in episodes) / rounds

    per_op = defaultdict(lambda: defaultdict(float))
    for name in ("metrics.build_report", "metrics.write_csv"):
        for r in by_name[name]:
            per_op[name][r[OP]] += _ms(r)
    csv_bytes = defaultdict(int)
    for r in by_name["metrics.write_csv"]:
        csv_bytes[r[OP]] += r[ATTRS]["bytes"]
    out["metrics.report_ms"] = _p50(per_op["metrics.build_report"].values())
    out["metrics.csv_ms"] = _p50(per_op["metrics.write_csv"].values())
    out["metrics.csv_bytes"] = _p50(csv_bytes.values())

    out["cli.run_bench_self_ms"] = _p50(_self_ms(children, r) for r in by_name["cli.run_bench"])
    return out


def _descendants(children, rec):
    stack = list(children[rec[ID]])
    while stack:
        child = stack.pop()
        yield child
        stack.extend(children[child[ID]])


def _self_ms(children, rec) -> float:
    """Span time not covered by spans of other layers beneath it; ``cli``
    spans beneath it count as its own time."""
    layer = rec[NAME].split(".")[0]
    covered = 0.0
    stack = list(children[rec[ID]])
    while stack:
        child = stack.pop()
        if child[NAME].split(".")[0] == layer:
            stack.extend(children[child[ID]])
        else:
            covered += _ms(child)
    return _ms(rec) - covered
