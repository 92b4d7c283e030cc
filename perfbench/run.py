"""semsearch benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload farm-eval --seed 1 --seconds 30 --trace 0

The run imports ``semsearch`` from ``src/``, builds its inputs from ``--seed``
and sets up five times. ``setup_s`` is the median time a fresh interpreter
takes to import ``semsearch`` (five tries) plus the median of the five
set-ups; the benchmark's own imports and the checker's preparation are not in
it. Then it runs whole rounds of the workload's operations until the next
round would take its timed work past ``--seconds``. Every output is checked
apart from the program (see checks.py). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every second round is traced; the run prints the per-layer metrics derived
from the spans of the traced rounds, with the tracing overhead as the median
traced round against the median untraced one, and writes the spans to
``perfbench/_work/spans-<workload>.jsonl``.
"""

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="semsearch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports semsearch."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import semsearch"
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def quantile(values, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    def __init__(self, workload, seconds: float):
        self.wl, self.seconds = workload, seconds
        self.attempted = self.failed = 0
        self.errors: list[str] = []      # failed checks
        self.op_errors: list[str] = []   # operations that raised
        self.rounds: list[dict] = []

    def round(self, r: int, tracer=None) -> dict:
        wl = self.wl
        wl.begin_round(r)
        gc.collect()
        busy, latencies, episodes, ops = 0.0, [], 0, []
        for i in range(wl.ops_per_round):
            self.attempted += 1
            if tracer is not None:
                ops.append(r * wl.ops_per_round + i)
                tracer.begin_op(ops[-1])
            started = time.perf_counter()
            try:
                result = wl.op(r, i)
            except Exception:
                self.failed += 1
                self.op_errors.append(traceback.format_exc())
                continue
            finally:
                if tracer is not None:
                    tracer.end_op()
            elapsed = time.perf_counter() - started
            busy += elapsed
            latencies.append(result.latency_s if result.latency_s is not None else elapsed)
            episodes += result.episodes
            self.check(lambda: wl.check(r, i, result))
        stats = {"busy": busy, "latencies": latencies, "episodes": episodes, "ops": ops,
                 "extra": {}}
        self.check(lambda: stats["extra"].update(wl.end_round(r)))
        return stats

    def check(self, fn) -> None:
        try:
            fn()
        except Exception:
            self.errors.append(traceback.format_exc())

    def timed(self, tracer=None) -> list[dict]:
        """Whole rounds until the next one would take the timed work past
        ``seconds``. With a tracer, every second round is traced, starting
        with the second, and there are at least two rounds."""
        while True:
            traced = tracer is not None and len(self.rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                stats = self.round(len(self.rounds), tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            stats["traced"] = traced
            self.rounds.append(stats)
            over = sum(s["busy"] for s in self.rounds) + stats["busy"] > self.seconds
            if over and (tracer is None or len(self.rounds) >= 2):
                return self.rounds


def end_to_end(timed: list[dict], setup_s: float) -> dict:
    latencies = [x for s in timed for x in s["latencies"]]
    busy = sum(s["busy"] for s in timed)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(s["busy"] for s in timed), "s"),
        "episodes_per_s": (sum(s["episodes"] for s in timed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "op_p90_ms": (quantile(latencies, 90) * 1000.0, "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "semsearch" / "__init__.py").is_file():
        print(f"error: no semsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import semsearch

    if Path(semsearch.__file__).resolve().parent != ROOT / "src" / "semsearch":
        print(f"error: imported semsearch from {semsearch.__file__}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / "_work"
    run_dir = work / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    run = Run(wl, args.seconds)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - started)
        gc.collect()
        gc.freeze()

        if args.trace:
            tracer = spans.Tracer()
            rounds = run.timed(tracer)
            traced = [s for s in rounds if s["traced"]]
            keys = {key for s in traced for key in s["extra"]}
            extra = {key: statistics.fmean(s["extra"].get(key, 0) for s in traced)
                     for key in keys}
            derived = spans.derive(tracer, [op for s in traced for op in s["ops"]],
                                   len(traced), extra)
            untraced_wall = statistics.median(s["busy"] for s in rounds if not s["traced"])
            traced_wall = statistics.median(s["busy"] for s in traced)
            derived["trace.untraced_wall_s"] = untraced_wall
            derived["trace.traced_wall_s"] = traced_wall
            derived["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
            tracer.write(work / f"spans-{args.workload}.jsonl")
            metrics = {name: (derived[name], unit) for name, unit, _ in spans.PER_LAYER}
        else:
            setup_s = import_seconds() + statistics.median(setups)
            metrics = end_to_end(run.timed(), setup_s)
        run.check(wl.final_check)
    finally:
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in run.op_errors + run.errors:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
