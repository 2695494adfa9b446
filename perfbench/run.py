"""The benchmark's one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-live --seed 20170618 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload, tuning
                                                # seed and held-out seed
    python3 perfbench/run.py --describe         # workloads and metrics

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer budget instead (an untraced and a
traced phase, so the tracing overhead is reported too).  Every run checks
the outputs it measures: verdicts against expectations, ``(A, L)`` across
passes, pipelines and tracing, and engines with and without wrappers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every check passed, 1 when one failed and 2 when the directory holds
no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import calibration  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, HELDOUT_SEED, PER_LAYER, describe, median,
    result_line,
)

WORKLOADS = ("campaign-live", "campaign-replay", "server-steady")
#: Set-ups per measured run, each in a fresh process; setup_s is the median.
SETUP_SAMPLES = 3
#: Seconds one workload run may take inside ``--workload all``.
RUN_TIMEOUT = 180


def make_workload(name: str, seed: int):
    if name == "server-steady":
        from perfbench.wire import ServerWorkload

        return ServerWorkload(seed)
    from perfbench.campaigns import CampaignWorkload

    return CampaignWorkload(name, seed)


def _sub_run(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def timed_setup(workload) -> float:
    """Set ``workload`` up; the time it took, in reference seconds."""
    before = calibration.speed()
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    return elapsed * calibration.factor(before, calibration.speed())


def setup_probe(name: str, seed: int) -> float:
    """Set the workload up in a fresh process; its set-up seconds."""
    done = _sub_run(["--workload", name, "--seed", str(seed), "--setup-only"],
                    RUN_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + done.stderr[-2000:])
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    probes = [] if traced else [setup_probe(name, seed)
                                for _ in range(SETUP_SAMPLES - 1)]
    workload = make_workload(name, seed)
    try:
        if traced:
            values = workload.trace(seconds)
            table = PER_LAYER
        else:
            setup_seconds = timed_setup(workload)
            values = workload.measure(seconds)
            values["setup_s"] = median(probes + [setup_seconds])
            table = END_TO_END
        workload.check()
    finally:
        workload.close()

    outcomes = workload.outcomes
    print("%s seed %d (%s)" % (name, seed, "traced" if traced else "untraced"))
    for metric in table:
        print("  %-30s %14.6g %s" % (metric, values[metric], table[metric][0]))
    for extra in sorted(set(values) - set(table)):
        print("  %-30s %14.6g" % (extra, values[extra]))
    print("  %-30s %14.6g (%d of %d)" % ("failed_frac", outcomes.failed_frac,
                                         outcomes.failed, outcomes.attempted))
    for failure in outcomes.failures:
        print("  FAILED: " + failure)
    correct = outcomes.failed == 0
    print(result_line(correct, outcomes.attempted, outcomes.failed,
                      {m: (values[m], table[m][0]) for m in table}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload on ``seed`` and on a second, held-out seed."""
    seeds = [seed, HELDOUT_SEED if seed != HELDOUT_SEED else DEFAULT_SEED]
    results = {}
    for run_seed in seeds:
        for name in WORKLOADS:
            done = _sub_run(["--workload", name, "--seed", str(run_seed),
                             "--seconds", str(seconds),
                             "--trace", "1" if traced else "0"], RUN_TIMEOUT)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            try:
                results[(name, run_seed)] = json.loads(
                    done.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                results[(name, run_seed)] = None
    table = PER_LAYER if traced else END_TO_END
    print("\n%-16s %-30s %s" % ("workload", "metric", "  ".join(
        "%14s" % ("seed %d" % s) for s in seeds)))
    for name in WORKLOADS:
        for metric in table:
            cells = []
            for run_seed in seeds:
                result = results[(name, run_seed)]
                cells.append("%14.6g" % result["metrics"][metric]["value"]
                             if result else "%14s" % "-")
            print("%-16s %-30s %s" % (name, metric + " " + table[metric][0],
                                      "  ".join(cells)))
    ran = [r for r in results.values() if r is not None]
    correct = len(ran) == len(results) and all(r["correct"] for r in ran)
    metrics = {
        "%s.s%d.%s" % (name, run_seed, metric): (value["value"], value["unit"])
        for (name, run_seed), result in results.items() if result
        for metric, value in result["metrics"].items()
    }
    print(result_line(correct, max(1, sum(r["attempted"] for r in ran)),
                      sum(r["failed"] for r in ran), metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end attestation benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--describe", action="store_true",
                        help="print the workloads and metrics, then exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(describe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("error: no repro sources to benchmark under %s" % source,
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        if args.setup_only:
            workload = make_workload(args.workload, args.seed)
            try:
                elapsed = timed_setup(workload)
            finally:
                workload.close()
            print(json.dumps({"setup_s": elapsed}))
            return 0
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except Exception:  # noqa: BLE001 - report, and fail without a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
