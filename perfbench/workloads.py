"""The three workloads. Each is a closed loop with one operation in flight.

A workload builds its inputs in ``setup`` and runs rounds of identical
operations: ``begin_round`` (untimed), ``op`` (timed), ``check`` after each
operation and ``end_round`` after each round (both untimed), and
``final_check`` once the timed phase is over. ``end_round`` returns counts
made outside the program, for the traced run. ``op`` returns an ``OpResult``;
its ``latency_s`` is the user-facing part of the operation, or ``None`` when
that is the whole operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from semsearch import affinity, cli, env_graph, metrics, planner, search_sim
from semsearch.affinity import LLMScorer, TableScorer
from semsearch.baselines import TableEmbedder, TableRoomScorer
from semsearch.env_graph import GroundTruth
from semsearch.llm_gateway import GatewayConfig, LLMGateway, ResponseCache
from semsearch.search_sim import PerceptionModel, SimulationParams

import checks
import inputs
from checks import Distances, require
from stub import prompt_logprobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class OpResult:
    latency_s: float | None
    episodes: int
    payload: object = None


class Workload:
    """Defaults for the hooks a workload does not need."""

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def begin_round(self, r: int) -> None:
        pass

    def end_round(self, r: int) -> dict:
        return {}

    def final_check(self) -> None:
        pass

    def close(self) -> None:
        pass


class FarmEval(Workload):
    """Paired run_bench of all four methods on scenarios/farm.json, then the
    four CSVs. Even operations use the scenario's perfect perception, odd ones
    the noisy model (TPR 0.8, FPR 0.05)."""

    name = "farm-eval"
    ops_per_round = 2
    trials = 2000

    def setup(self) -> None:
        text = (ROOT / "scenarios" / "farm.json").read_text(encoding="utf-8")
        self.doc = json.loads(text)
        self.cfg = env_graph.parse_scenario(text)
        self.scorer = TableScorer(self.cfg.scorer.table)
        self.room_scorer = TableRoomScorer(self.cfg.room_scores)
        self.embedder = TableEmbedder(self.cfg.embeddings)
        self.params = [self.cfg.params,
                       SimulationParams(perception=PerceptionModel(0.8, 0.05),
                                        seed=self.cfg.params.seed)]
        self.paths: dict[str, set] = {}
        self._bench(100, self.seed, self.params[0], self.work / "warmup")
        shutil.rmtree(self.work / "warmup")

    def _bench(self, trials: int, seed: int, params, out: Path) -> None:
        reports = cli.run_bench(self.cfg, list(cli.METHODS), trials, seed,
                                affinity_scorer=self.scorer, room_scorer=self.room_scorer,
                                embedder=self.embedder, params=params)
        out.mkdir(parents=True)
        metrics.write_episode_csv(reports, out / "episodes.csv")
        metrics.write_summary_csv(reports, out / "summary.csv")
        metrics.write_steps_csv(reports, out / "steps.csv")
        metrics.write_long_csv(reports, out / "long.csv")

    def op(self, r: int, i: int) -> OpResult:
        out = self.work / f"farm-{r}-{i}"
        self._bench(self.trials, child_seed(self.seed, r, i), self.params[i % 2], out)
        return OpResult(None, len(cli.METHODS) * self.trials, out)

    @cached_property
    def dist(self) -> Distances:
        return Distances(self.doc)

    def check(self, r: int, i: int, result: OpResult) -> None:
        host_wp = {o["instance_id"]: o["waypoint"] for o in self.doc["objects"]}
        out = result.payload
        try:
            paths = checks.check_bench_csvs(out, self.dist, host_wp, self.trials,
                                            cli.METHODS)
        finally:
            shutil.rmtree(out)
        for start, seen in paths.items():
            self.paths.setdefault(start, set()).update(seen)

    def final_check(self) -> None:
        """losae plans per start: optimal by Held-Karp, and every episode
        walked a prefix of its start's plan."""
        env = self.cfg.env
        target = self.cfg.truth.target_label
        probability = checks.table_probability(self.cfg.scorer.table, env.labels(), target)
        scores = checks.waypoint_scores(self.doc, probability)
        ws = planner.waypoint_scores(env, affinity.score_distribution(
            self.scorer, env.labels(), target))
        for start, seen in sorted(self.paths.items()):
            plan = planner.plan_optimal(env, start, ws)
            checks.check_plan(plan, self.dist, scores, 1.0, self.dist.diameter, optimal=True)
            for path in seen:
                require(path == plan.sequence[:len(path)],
                        f"losae episode from {start} left its plan: {path}")


USER_PROMPT = "I see the following: {seen}. Where should I go to find {target}?"
STUB_DELAY_MS = 1.0


class Stub:
    """The stub endpoint as a child process; see stub.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--delay-ms", str(STUB_DELAY_MS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        require(line.startswith("PORT "), f"stub did not start: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(self.base_url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SearchQueries(Workload):
    """One robot query per operation: LLM scoring through the gateway and its
    JSONL cache against the stub, waypoint scores, a plan, one episode.
    Each round starts from an empty cache, so every round has the same
    misses (first asks) and hits (repeats)."""

    name = "search-queries"

    stub = None

    def setup(self) -> None:
        self.close()
        rng = random.Random(child_seed(self.seed, self.name))
        self.docs, self.queries = inputs.search_queries(rng)
        self.ops_per_round = len(self.queries)
        self.cfgs = [env_graph.parse_scenario(json.dumps(doc)) for doc in self.docs]
        self.stub = Stub()
        self.config = GatewayConfig(base_url=self.stub.base_url, api_key="perfbench",
                                    model="bench-model", timeout_s=10.0,
                                    requests_per_second=1e6, burst=1_000_000)
        self.first_plans: dict[int, tuple] = {}
        self.to_optimise: dict[tuple, tuple] = {}
        self.begin_round(-1)
        self.op(-1, 0)
        self.stub.stats()

    def begin_round(self, r: int) -> None:
        self.cache_path = self.work / f"cache-{r}.jsonl"
        self.cache_path.unlink(missing_ok=True)
        self.scorer = LLMScorer(LLMGateway(self.config, cache=ResponseCache(self.cache_path)))

    def op(self, r: int, i: int) -> OpResult:
        q = self.queries[i]
        env = self.cfgs[q.map_index].env
        started = time.perf_counter()
        dist = affinity.score_distribution(self.scorer, env.labels(), q.target)
        ws = planner.waypoint_scores(env, dist)
        plan = planner.plan_optimal(env, q.start, ws)
        latency = time.perf_counter() - started
        result = search_sim.run_episode(env, plan, GroundTruth(q.target, q.host),
                                        self.cfgs[q.map_index].params,
                                        seed=child_seed(self.seed, i))
        return OpResult(latency, 1, (dist, plan, result))

    @cached_property
    def dists(self) -> list[Distances]:
        return [Distances(doc) for doc in self.docs]

    def check(self, r: int, i: int, result: OpResult) -> None:
        dist, plan, episode = result.payload
        q = self.queries[i]
        doc, d = self.docs[q.map_index], self.dists[q.map_index]
        if r > 0:
            require(plan.sequence == self.first_plans[i], f"query {i}: plan changed in round {r}")
            return
        for label, raw in dist.raw.items():
            values = prompt_logprobs(USER_PROMPT.format(seen=label, target=q.target))
            expected = math.exp(math.fsum(values) / len(values))
            require(checks.close(raw, expected), f"raw score of {label!r}: {raw} != {expected}")
        total = math.fsum(dist.raw.values())
        probability = {label: raw / total for label, raw in dist.raw.items()}
        for label, p in dist.entries.items():
            require(checks.close(p, probability[label]), f"probability of {label!r}")
        scores = checks.waypoint_scores(doc, probability)
        require(len(scores) == q.k, f"query {i}: {len(scores)} scored waypoints, not {q.k}")
        checks.check_plan(plan, d, scores, 1.0, d.diameter, optimal=False)
        host_wp = next(o["waypoint"] for o in doc["objects"] if o["instance_id"] == q.host)
        checks.check_episode(episode, d, q.start, plan.sequence, host_wp)
        self.first_plans[i] = plan.sequence
        self.to_optimise[(q.map_index, q.start, q.target)] = (plan, scores)

    def end_round(self, r: int) -> dict:
        counts = self.stub.stats()
        prompts = {USER_PROMPT.format(seen=checks.label_key(o["label"]), target=q.target)
                   for q in self.queries for o in self.docs[q.map_index]["objects"]}
        require(set(counts) == prompts,
                f"stub saw {len(counts)} distinct prompts, expected {len(prompts)}")
        require(all(c == 1 for c in counts.values()),
                f"stub saw {sum(c > 1 for c in counts.values())} prompts more than once")
        return {"requests_sent": sum(counts.values()),
                "cache_bytes": self.cache_path.stat().st_size,
                "stub_delay_ms": STUB_DELAY_MS}

    def final_check(self) -> None:
        for (m, _, _), (plan, scores) in self.to_optimise.items():
            d = self.dists[m]
            checks.check_plan(plan, d, scores, 1.0, d.diameter, optimal=True)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


class MapLoad(Workload):
    """Bring up a new map: parse a generated 100-300 waypoint document, score
    it with its table, plan from one start over its five scored waypoints,
    then a short run_batch."""

    name = "map-load"
    batch_trials = 20

    def setup(self) -> None:
        rng = random.Random(child_seed(self.seed, self.name))
        self.docs = inputs.map_load_docs(rng)
        self.ops_per_round = len(self.docs)
        self.first: dict[int, tuple] = {}
        warm = inputs.load_map(rng, 40, inputs.TARGETS[0])
        self._ready(warm, inputs.TARGETS[0], json.loads(warm)["waypoints"][0]["id"])

    def _ready(self, text: str, target: str, start: str):
        cfg = env_graph.parse_scenario(text)
        scorer = TableScorer(cfg.scorer.table)
        dist = affinity.score_distribution(scorer, cfg.env.labels(), target)
        plan = planner.plan_optimal(cfg.env, start, planner.waypoint_scores(cfg.env, dist))
        return cfg, scorer, plan

    def op(self, r: int, i: int) -> OpResult:
        _, text, target, start = self.docs[i]
        started = time.perf_counter()
        cfg, scorer, plan = self._ready(text, target, start)
        latency = time.perf_counter() - started
        report = cli.run_batch(cfg, "losae", self.batch_trials, cfg.params.seed,
                               target=target, affinity_scorer=scorer)
        return OpResult(latency, self.batch_trials, (cfg, plan, report))

    def check(self, r: int, i: int, result: OpResult) -> None:
        cfg, plan, report = result.payload
        summary = (plan.sequence, report.sr, report.spl, report.pe_mean)
        if r > 0:
            require(summary == self.first[i], f"map {i}: outputs changed in round {r}")
            return
        self.first[i] = summary
        _, text, target, start = self.docs[i]
        doc = json.loads(text)
        d = Distances(doc)
        checks.check_environment(cfg.env, d)
        probability = checks.table_probability(doc["scorer"]["table"], cfg.env.labels(), target)
        scores = checks.waypoint_scores(doc, probability)
        require(sum(s > 0 for s in scores.values()) <= 5, "more than five scored waypoints")
        checks.check_plan(plan, d, scores, 1.0, d.diameter, optimal=True)
        host_wp = {o["instance_id"]: o["waypoint"] for o in doc["objects"]}
        require(report.episodes == self.batch_trials == len(report.rows),
                f"map {i}: {report.episodes} episodes reported of {self.batch_trials}")
        found, spl_terms = 0, []
        for row in report.rows:
            require(not row.error, f"map {i} trial {row.trial}: {row.error}")
            ideal = d(row.start, host_wp[row.host_object])
            require(checks.close(row.ideal_m, ideal), f"ideal_m {row.ideal_m} != {ideal}")
            success = row.outcome == "found"
            found += success
            spl_terms.append((ideal / max(row.traversed_m, ideal) if ideal > 0 else 1.0)
                             if success else 0.0)
        require(checks.close(report.sr, found / len(report.rows)), f"map {i}: SR")
        require(checks.close(report.spl, math.fsum(spl_terms) / len(spl_terms)), f"map {i}: SPL")
        require(report.spl <= report.sr + 1e-12, f"map {i}: SPL above SR")


WORKLOADS = {w.name: w for w in (FarmEval, SearchQueries, MapLoad)}
