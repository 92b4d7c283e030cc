"""Command-line entry point: score, plan, run, and bench subcommands.

Every command is deterministic given (scenario, seed) with the table scorer or
a warm response cache. Trial sampling redraws the start waypoint and the
target's host object uniformly per trial; bench reuses one sampled sequence
across all methods so the comparison is paired.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from . import baselines, metrics
from .affinity import LLMScorer, TableScorer, normalize_label, score_distribution
from .env_graph import GroundTruth, ScenarioConfig, load_scenario_path
from .metrics import BatchReport, EpisodeRow, episode_fields
from .planner import PlannerConfig, SearchPlan, plan_optimal, waypoint_scores
from .search_sim import SimulationParams, episode_endings, first_ending, trial_draws
# Unused here; perfbench's tracer wraps `cli.run_episode` by name (ROADMAP item 4).
from .search_sim import run_episode  # noqa: F401

if TYPE_CHECKING:
    from .llm_gateway import LLMGateway

METHODS = ("losae", "room_search", "hottest_object", "hottest_waypoint")
# Every method but Room Search plans over the target's affinity distribution.
AFFINITY_METHODS = frozenset(("losae", "hottest_object", "hottest_waypoint"))

Planner = Callable[[str, PlannerConfig], SearchPlan]


def child_seed(seed: int, trial: int) -> int:
    """Platform-stable per-trial seed derivation."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_pairs(env, trials: int, seed: int) -> list[tuple[str, str]]:
    """Uniform (start waypoint, host object) draws from sorted eligible sets."""
    rng = random.Random(seed)
    starts = env.waypoint_ids()
    hosts = env.instance_ids()
    if not hosts:
        raise ValueError("environment has no objects to host the target")
    return [(rng.choice(starts), rng.choice(hosts)) for _ in range(trials)]


def compute_artifacts(cfg: ScenarioConfig, methods, target: str, affinity_scorer=None,
                      room_scorer=None, embedder=None) -> dict[str, Planner]:
    """Score once per run and return each method's planner: (start, config) -> plan.

    The scores are independent of the sampled start and host, so one set
    serves every trial. Every method's inputs are checked before any scorer
    is asked: an unknown or repeated method, a missing affinity scorer, and
    for Room Search missing rooms, room scorer, `embedder`, or a vector for the
    target or a hosted label are errors. Room Search ranks labels only by the
    vectors `embedder` declares.
    """
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unrecognized method {method!r}; expected one of {METHODS}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is listed more than once")
    env = cfg.env
    if AFFINITY_METHODS.intersection(methods) and affinity_scorer is None:
        raise ValueError("an affinity scorer is required for this method")
    if "room_search" in methods:
        if not env.rooms:
            raise ValueError("scenario declares no rooms; room_search needs them")
        if room_scorer is None:
            raise ValueError("a room scorer is required for room_search")
        if embedder is None:
            raise ValueError("scenario declares no embeddings; room_search needs them")
        ranking = baselines.similarity_rank(embedder, env.labels(), target)
    planners: dict[str, Planner] = {}
    if AFFINITY_METHODS.intersection(methods):
        distribution = score_distribution(affinity_scorer, env.labels(), target)
        wscores = waypoint_scores(env, distribution)
        planners["losae"] = lambda start, config: plan_optimal(env, start, wscores, config)
        planners["hottest_object"] = lambda start, config: baselines.hottest_object_plan(
            env, distribution, start, config)
        planners["hottest_waypoint"] = lambda start, config: baselines.hottest_waypoint_plan(
            env, wscores, start, config)
    if "room_search" in methods:
        room_dist = baselines.room_scores(room_scorer, sorted(env.rooms), target)
        planners["room_search"] = lambda start, config: baselines.plan_room_search(
            env, room_dist, start, config, ranking=ranking)
    return planners


def run_batch(cfg: ScenarioConfig, method: str, trials: int, seed: int,
              **options) -> BatchReport:
    """`run_bench` over one method; `options` are its keyword arguments."""
    return run_bench(cfg, [method], trials, seed, **options)[0]


def run_bench(cfg: ScenarioConfig, methods, trials: int, seed: int, *,
              target: str | None = None, affinity_scorer=None, room_scorer=None,
              embedder=None, planner_config: PlannerConfig | None = None,
              params: SimulationParams | None = None) -> list[BatchReport]:
    """One BatchReport per method over the same `trials` sampled trials.

    Each trial's start, host object and detection draws are drawn once and
    every method runs over them, so the comparison is paired. Each method
    lists the endings of each (start, host) it meets once, with their row
    fields, and a trial's row takes the fields of the first ending its draws
    trigger; rows that share an ending share its field objects. Failures are
    recorded, not raised: a (start, host) whose plan or endings raised has the
    error row as its one ending, and counts as a failed attempt in SR and SPL.
    A start whose plan raised is planned once and its error reused.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    env = cfg.env
    target = target or cfg.truth.target_label
    config = planner_config or PlannerConfig()
    perception = (params or cfg.params).perception
    planners = compute_artifacts(cfg, methods, target, affinity_scorer,
                                 room_scorer, embedder)
    sampled = []
    for trial, (start, host) in enumerate(sample_pairs(env, trials, seed)):
        episode_seed = child_seed(seed, trial)
        sampled.append((trial, start, host, episode_seed,
                        trial_draws(env, perception, episode_seed)))

    reports = []
    for method in methods:
        plan_from = planners[method]
        plans: dict[str, SearchPlan | str] = {}  # a start's plan, or its planner's error
        endings: dict[tuple[str, str], list] = {}  # (start, host) -> (position, rate, fields)
        rows = []
        for trial, start, host, episode_seed, draws in sampled:
            entries = endings.get((start, host))
            if entries is None:
                plan = plans.get(start)
                if plan is None:
                    try:
                        plan = plan_from(start, config)
                    except Exception as exc:
                        plan = _error_text(exc)
                    plans[start] = plan
                error = plan if isinstance(plan, str) else ""
                if not error:
                    truth = GroundTruth(target_label=target, host_object=host)
                    try:
                        entries = [(position, rate, episode_fields(result)) for
                                   position, rate, result in episode_endings(env, plan, truth,
                                                                             perception)]
                    except Exception as exc:
                        error = _error_text(exc)
                if error:
                    entries = [(0, 1.0, episode_fields(None, error))]
                endings[start, host] = entries
            rows.append(EpisodeRow(trial, start, host, target, episode_seed,
                                   *first_ending(entries, draws)))
        reports.append(metrics.build_report(method, rows))
    return reports


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- scorer construction -----------------------------------------------------------

def _make_gateway(args) -> LLMGateway:
    # Imported here so table-scorer commands never load the HTTP client.
    from .llm_gateway import GatewayConfig, LLMGateway, ResponseCache

    cache = ResponseCache(args.cache) if args.cache else None
    return LLMGateway(GatewayConfig.from_env(), cache=cache)


def _make_scorers(cfg: ScenarioConfig, args, methods):
    """(affinity scorer, room scorer) for `methods`, None where no method needs one.

    The scorer kind is resolved once. With the llm kind both scorers share one
    gateway, so a command reads its cache file and fills its rate limit once;
    the table kind builds no gateway.
    """
    kind = args.scorer or (cfg.scorer.kind if cfg.scorer else None)
    affinity_scorer = room_scorer = gateway = None
    if AFFINITY_METHODS.intersection(methods):
        if kind is None:
            raise ValueError("scenario declares no scorer; pass --scorer llm|table")
        if kind == "table":
            table = cfg.scorer.table if cfg.scorer else None
            if not table:
                raise ValueError("table scorer requested but the scenario has no affinity table")
            affinity_scorer = TableScorer(table)
        else:
            gateway = _make_gateway(args)
            affinity_scorer = LLMScorer(gateway)
    if "room_search" in methods:
        if cfg.room_scores:
            room_scorer = baselines.TableRoomScorer(cfg.room_scores)
        elif kind == "llm":
            room_scorer = baselines.LLMRoomScorer(gateway or _make_gateway(args))
        else:
            raise ValueError("room_search needs a room_scores table in the scenario or --scorer llm")
    return affinity_scorer, room_scorer


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _planner_config(args) -> PlannerConfig:
    return PlannerConfig(score_weight=args.score_weight)


# -- commands -----------------------------------------------------------------------

def cmd_score(args) -> int:
    cfg = load_scenario_path(args.scenario)
    target = args.target or cfg.truth.target_label
    scorer, _ = _make_scorers(cfg, args, AFFINITY_METHODS)
    dist = score_distribution(scorer, cfg.env.labels(), target)
    print(f"target: {dist.target_label}")
    print(f"{'label':<24} {'probability':>12} {'raw':>12}")
    for label, p in sorted(dist.entries.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{label:<24} {p:>12.6f} {dist.raw[label]:>12.6f}")
    print(f"{'sum':<24} {math.fsum(dist.entries.values()):>12.6f}")
    if isinstance(scorer, LLMScorer) and scorer.answers:
        print("model answers (diagnostic only, not used for scoring):")
        for (seen, _), answer in sorted(scorer.answers.items()):
            print(f"  {seen}: {answer}")
    return 0


def cmd_plan(args) -> int:
    cfg = load_scenario_path(args.scenario)
    target = args.target or cfg.truth.target_label
    start = args.start or next(iter(cfg.env.waypoints))
    scorer, _ = _make_scorers(cfg, args, ["losae"])
    config = _planner_config(args)
    plan = compute_artifacts(cfg, ["losae"], target, scorer)["losae"](start, config)
    print(f"start: {plan.start}  target: {normalize_label(target)}  mode: {plan.mode}")
    print(f"{'rank':>4} {'waypoint':<16} {'leg(norm)':>10} {'leg(m)':>10} {'score':>10} {'cum_prob':>10}")
    for rank, step in enumerate(plan.per_step, 1):
        print(f"{rank:>4} {step.waypoint:<16} {step.leg:>10.6f} {step.leg_meters:>10.6f} "
              f"{step.score:>10.6f} {step.cumulative:>10.6f}")
    print(f"total cost: {plan.cost:.6f}")
    return 0


def cmd_run(args) -> int:
    return _bench(args, [args.method])


def cmd_bench(args) -> int:
    return _bench(args, args.methods or list(METHODS))


def _bench(args, methods) -> int:
    """Paired trials of `methods`: the four CSVs, a printed summary, and exit
    code 1 when any trial errored."""
    cfg = load_scenario_path(args.scenario)
    seed = args.seed if args.seed is not None else cfg.params.seed
    affinity_scorer, room_scorer = _make_scorers(cfg, args, methods)
    reports = run_bench(
        cfg, methods, args.trials, seed,
        target=args.target,
        affinity_scorer=affinity_scorer,
        room_scorer=room_scorer,
        embedder=baselines.TableEmbedder(cfg.embeddings) if cfg.embeddings else None,
        planner_config=_planner_config(args),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_episode_csv(reports, out_dir / "episodes.csv")
    metrics.write_summary_csv(reports, out_dir / "summary.csv")
    metrics.write_steps_csv(reports, out_dir / "steps.csv")
    metrics.write_long_csv(reports, out_dir / "long.csv")
    print(f"{'method':<18} {'N':>4} {'SR':>7} {'SPL':>7}")
    for r in reports:
        print(f"{r.method:<18} {r.episodes:>4} {r.sr:>7.6f} {r.spl:>7.6f}")
    print()
    print(f"{'method':<18} {'PE_mean':>9} {'PE_std':>9} {'excluded':>9}")
    for r in reports:
        print(f"{r.method:<18} {r.pe_mean:>9.6f} {r.pe_std:>9.6f} {r.pe_excluded:>9}")
    return 1 if any(row.error for r in reports for row in r.rows) else 0


# -- parser -------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
    p.add_argument("--target", default=None, help="target label (default: scenario ground truth)")
    p.add_argument("--scorer", choices=("llm", "table"), default=None,
                   help="override the scenario's scorer kind")
    p.add_argument("--cache", default=None, help="response cache file for the llm scorer")


def _add_planner(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="score_weight", type=float,
                   default=PlannerConfig.score_weight,
                   help="score weight in the plan cost (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsearch",
        description="Semantic object search on waypoint graphs: scoring, planning, simulation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="print the affinity distribution for a target")
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plan", help="print the planned search path for a target")
    _add_common(p)
    _add_planner(p)
    p.add_argument("--start", default=None,
                   help="start waypoint (default: first waypoint in the scenario)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="run seeded episodes of one method and write CSVs")
    _add_common(p)
    _add_planner(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--trials", type=_positive_int, default=15)
    p.add_argument("--seed", type=int, default=None, help="default: scenario seed")
    p.add_argument("--out", default="out", help="output directory for CSV files")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="compare methods over one paired trial sequence")
    _add_common(p)
    _add_planner(p)
    p.add_argument("--methods", nargs="*", default=None,
                   help=f"methods to compare (default: all of {', '.join(METHODS)})")
    p.add_argument("--trials", type=_positive_int, default=15)
    p.add_argument("--seed", type=int, default=None, help="default: scenario seed")
    p.add_argument("--out", default="out", help="output directory for CSV files")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
