"""Metric definitions and the arithmetic behind them.

The tables here are the benchmark's contract with later changes: each
workload with why it was chosen and which layers it keeps busy or idle,
each end-to-end metric with its unit, direction and regression bound, and
each per-layer metric with the end-to-end metric and workload it should
move.  ``python3 perfbench/run.py --describe`` prints them.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The seed the benchmark is tuned on, and the held-out one it must also pass.
DEFAULT_SEED = 20170618
HELDOUT_SEED = 4242

_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: name -> (why it was chosen, busy layers, idle layers); BENCHMARK.json
#: records each as one line (:func:`workload_why`).
WORKLOADS: Dict[str, Tuple[str, str, str]] = {
    "campaign-live": (
        "live pipeline, fresh DB each pass: prover and reference simulate "
        "every job",
        "cpu, lofat, cflat/static sessions, get_workload",
        "trace loading, replay, framing",
    ),
    "campaign-replay": (
        "capture pipeline, fresh store and DB each pass: one run per unique "
        "execution, every job replays a parsed trace",
        "trace loading, replay, dedup, sessions",
        "cpu, framing",
    ),
    "server-steady": (
        "repro serve under 2 unpaced closed-loop connections, 1 round in 10 "
        "hostile",
        "framing, codec, signatures, verifier, policy screen, DB lookup",
        "cpu, lofat, schemes",
    ),
}


def workload_why(name: str) -> str:
    """The one-line rationale of a workload, with its busy and idle layers."""
    why, busy, idle = WORKLOADS[name]
    return "%s. Busy: %s. Idle: %s" % (why, busy, idle)


#: End-to-end metrics: name -> (unit, better, bound, definition).  Times
#: are in reference seconds (see :mod:`perfbench.calibration`).
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "attest_per_s": (
        "1/s", "higher", 0.25,
        "attestations completed with the expected verdict per second "
        "(campaign jobs; wire rounds on server-steady), median over passes",
    ),
    "attested_minstr_per_s": (
        "Minstr/s", "higher", 0.25,
        "millions of simulated instructions attested per second",
    ),
    "cpu_ms_per_attest": (
        "ms", "lower", 0.25,
        "process CPU per completed attestation, benchmark process plus "
        "server process",
    ),
    "verify_p50_ms": (
        "ms", "lower", 0.25,
        "median latency of one attestation: REPORT frame written to VERDICT "
        "read on server-steady; the runner's per-job report latency "
        "(JobResult.prover_seconds) on the batch campaign workloads",
    ),
    "verify_p99_ms": (
        "ms", "lower", 0.25,
        "99th percentile of the same samples (only with >= 10 beyond it)",
    ),
    "peak_rss_mb": (
        "MB", "lower", 0.25,
        "peak resident memory of the process doing the attestation work "
        "(the runner for campaigns, the server for server-steady, whose "
        "used-nonce set grows with every round served, so its peak steps "
        "with the round count when the set resizes)",
    ),
    "setup_s": (
        "s", "lower", 0.25,
        "workload start to first timed operation, median of several "
        "fresh-process set-ups",
    ),
}

#: Per-layer metrics: name -> (unit, better, what it should move).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "cpu.run_self_s": ("s", "lower", "attest_per_s, attested_minstr_per_s on "
                       "campaign-live; zero on server-steady"),
    "cpu.runs": ("count", "lower", "attest_per_s on campaign-live"),
    "cpu.instructions": ("count", "lower", "attested_minstr_per_s on "
                         "campaign-live"),
    "cpu.compiled_frac": ("ratio", "higher", "attest_per_s on campaign-live"),
    "cpu.plan_compiles": ("count", "lower", "setup_s"),
    "lofat.branch_filter_s": ("s", "lower", "attest_per_s on both campaigns"),
    "lofat.loop_monitor_s": ("s", "lower", "attest_per_s on both campaigns"),
    "lofat.hash_s": ("s", "lower", "attest_per_s on both campaigns"),
    "lofat.metadata_s": ("s", "lower", "attest_per_s on both campaigns"),
    "lofat.cf_events": ("count", "lower", "attest_per_s on both campaigns"),
    "lofat.pairs_hashed": ("count", "lower", "attest_per_s on both campaigns"),
    "lofat.compression_ratio": ("ratio", "lower", "attest_per_s on both "
                                "campaigns"),
    "schemes.cflat_s": ("s", "lower", "attest_per_s on both campaigns"),
    "schemes.static_s": ("s", "lower", "attest_per_s on both campaigns"),
    "schemes.replay_s": ("s", "lower", "attest_per_s on campaign-replay; "
                         "zero on campaign-live"),
    "service.trace_load_s": ("s", "lower", "attest_per_s on campaign-replay"),
    "service.capture_s": ("s", "lower", "attest_per_s on campaign-replay"),
    "service.dedup_rate": ("ratio", "higher", "attest_per_s on "
                           "campaign-replay"),
    "service.replay_cache_hit_rate": ("ratio", "higher", "attest_per_s on "
                                      "campaign-replay"),
    "service.db_lookup_s": ("s", "lower", "verify_p50_ms on server-steady, "
                            "setup_s"),
    "service.db_store_s": ("s", "lower", "verify_p50_ms on server-steady, "
                           "setup_s"),
    "service.db_hit_rate": ("ratio", "higher", "verify_p50_ms on "
                            "server-steady, setup_s"),
    "workloads.lookup_s": ("s", "lower", "attest_per_s on both campaigns"),
    "attestation.sign_s": ("s", "lower", "attest_per_s on both campaigns"),
    "attestation.verify_sig_s": ("s", "lower", "verify_p50_ms, verify_p99_ms "
                                 "on server-steady"),
    "attestation.codec_s": ("s", "lower", "verify_p50_ms, verify_p99_ms on "
                            "server-steady"),
    "attestation.verifier_s": ("s", "lower", "verify_p50_ms, verify_p99_ms "
                               "on server-steady"),
    "attestation.frames": ("count", "lower", "verify_p50_ms on "
                           "server-steady"),
    "attestation.frame_bytes": ("count", "lower", "verify_p50_ms on "
                                "server-steady"),
    "dataflow.policy_s": ("s", "lower", "verify_p50_ms, verify_p99_ms on "
                          "server-steady"),
    "dataflow.analyze_s": ("s", "lower", "setup_s"),
    "verdicts.accepted": ("count", "higher", "failed_frac"),
    "verdicts.bad_signature": ("count", "higher", "failed_frac"),
    "verdicts.nonce_reused": ("count", "higher", "failed_frac"),
    "verdicts.policy_violation": ("count", "higher", "failed_frac"),
    "verdicts.measurement_mismatch": ("count", "higher", "failed_frac"),
    "server.cpu_frac": ("ratio", "higher", "attest_per_s on server-steady "
                        "(the server should be the bound)"),
    "loadgen.cpu_frac": ("ratio", "lower", "attest_per_s on server-steady "
                         "(must stay below server.cpu_frac)"),
    "other_s": ("s", "lower", "the traced window not covered by any span"),
    "trace.window_s": ("s", "lower", "wall time of the traced window"),
    "trace.overhead_frac": ("ratio", "lower", "untraced over traced "
                            "attest_per_s, minus one"),
}


def validate_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or len(name) > 64 or not _NAME.match(name) \
            or not name[0].isalnum():
        raise ValueError("invalid metric name %r" % (name,))
    return name


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of non-empty samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(samples: Sequence[float], q: float,
                  min_beyond: int = 10) -> Optional[float]:
    """The ``q`` quantile, or None unless ``min_beyond`` samples lie above it.

    A tail percentile resting on fewer samples beyond it is noise, so it
    is not reported at all.
    """
    if not samples:
        return None
    value = nearest_rank(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    return value if beyond >= min_beyond else None


def windowed_quantile(windows: Sequence[Sequence[float]], q: float,
                      min_beyond: int = 10) -> Optional[float]:
    """Median over windows of each window's ``q`` quantile.

    Every window must hold ``min_beyond`` samples above its quantile (see
    :func:`tail_quantile`); a burst of host noise then moves one window's
    value instead of the pooled tail.
    """
    values = [tail_quantile(window, q, min_beyond) for window in windows]
    if not values or any(value is None for value in values):
        return None
    return median(values)


def group_samples(chunks: Sequence[Sequence[float]],
                  minimum: int) -> List[List[float]]:
    """Merge consecutive chunks into groups of at least ``minimum`` samples.

    A short remainder joins the last group.
    """
    groups: List[List[float]] = []
    current: List[float] = []
    for chunk in chunks:
        current.extend(chunk)
        if len(current) >= minimum:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


class Outcomes:
    """Counts attempted operations and the ones that failed.

    An operation fails when its verdict differs from the expected one, when
    it raised, or when the server answered with an ERROR frame.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, expected: str, got: Optional[str],
               detail: str = "") -> bool:
        """Count one operation; ``got`` is None for an error.  True if ok."""
        self.attempted += 1
        if got == expected:
            return True
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("expected %s, got %s%s" % (
                expected, got if got is not None else "an error",
                " (%s)" % detail if detail else ""))
        return False

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[:20 - len(self.failures)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Mapping[str, Tuple[float, str]]) -> str:
    """The one-line JSON result: ``metrics`` maps name -> (value, unit)."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    document = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {},
    }
    for name, (value, unit) in metrics.items():
        validate_name(name)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        document["metrics"][name] = {"value": value, "unit": unit}
    return json.dumps(document)


def describe() -> str:
    """Human-readable rendering of the tables above."""
    lines = ["workloads:"]
    for name in WORKLOADS:
        lines.append("  %-16s %s" % (name, workload_why(name)))
    lines.append("end-to-end metrics (tracing off):")
    for name, (unit, better, bound, text) in END_TO_END.items():
        lines.append("  %-22s %-9s %-6s bound %.2f  %s"
                     % (name, unit, better, bound, text))
    lines.append("per-layer metrics (--trace 1):")
    for name, (unit, better, moves) in PER_LAYER.items():
        lines.append("  %-30s %-6s %-6s moves %s" % (name, unit, better, moves))
    return "\n".join(lines)
