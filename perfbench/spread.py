"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload campaign-live --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed``, ``+1``, ...)
and prints, per metric, the median of the runs and the distance between
their first and third quartiles as a share of the median -- the spread a
metric's ``bound`` in BENCHMARK.json has to cover.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spreads(values_by_metric: dict) -> dict:
    """metric -> (median, (q3 - q1) / median) over its values."""
    result = {}
    for metric, values in values_by_metric.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        middle = statistics.median(values)
        result[metric] = (middle, (q3 - q1) / middle if middle else float("inf"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print("seed %d (%.0f s): %s" % (
            seed, time.perf_counter() - started, ", ".join(
                "%s=%.4g" % (m, v["value"])
                for m, v in result["metrics"].items())), flush=True)
        for metric, value in result["metrics"].items():
            values.setdefault(metric, []).append(value["value"])
    for metric, (middle, spread) in spreads(values).items():
        bound = bounds.get(metric)
        print("%-24s median %12.6g  spread %6.3f  bound %s%s" % (
            metric, middle, spread, bound,
            "" if bound is None or spread < bound / 3 else "  <-- wide"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
