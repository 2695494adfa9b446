"""The campaign workloads: ``campaign-live`` and ``campaign-replay``.

Both attest the same job list -- the seeded ``family_campaign`` matrix plus
every registry workload at its default inputs, under lofat, cflat and
static -- through ``CampaignRunner.run(workers=1, verify_mode="database")``
with the default engine settings.  A *pass* is one run of the whole job
list with a fresh ``MeasurementDatabase`` and ``TraceStore``; only the
pipeline differs (``live``: every job simulates and measures, and so does
its reference; ``capture``: one simulation per unique execution, then
every job replays its parsed trace).

``repro`` is imported inside the functions that use it, so that importing
it counts toward ``setup_s``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from perfbench import calibration
from perfbench import tracer as tracing
from perfbench.metrics import (
    Outcomes, group_samples, median, peak_rss_mb, windowed_quantile,
)

#: Seeded input vectors per family member.
INPUT_SETS = 6
#: Timed passes a run makes at least, whatever ``--seconds`` says: enough
#: job latencies for a p99 with ten samples beyond it.
MIN_PASSES = 4
#: Job latencies per latency window: the p99 of each window has ten samples
#: beyond it, and the reported percentiles are medians over windows.
LATENCY_WINDOW = 1000
SCHEMES = ["lofat", "cflat", "static"]
PIPELINES = {"campaign-live": "live", "campaign-replay": "capture"}


def build_spec(seed: int):
    """The job list: family matrix for ``seed`` plus the registry."""
    from repro.service import CampaignSpec, WorkloadSelection, family_campaign
    from repro.workloads import all_workloads

    # Read the registry before the family members register themselves.
    registry = [WorkloadSelection(name=w.name) for w in all_workloads()]
    family = family_campaign(seed=seed, input_sets=INPUT_SETS)
    return CampaignSpec(
        name="perfbench_s%d" % seed,
        description="family matrix plus registry under every scheme",
        workloads=family.workloads + registry,
        schemes=list(SCHEMES),
        verify_mode="database",
    )


def _cold_replay_caches() -> None:
    """Start a pass the way a fresh campaign process would replay.

    The per-process replay cache and the parsed-trace memo are keyed by
    trace content, so without this every pass after the first would skip
    replay and trace loading entirely.
    """
    from repro.service import tracestore
    from repro.service.worker import clear_replay_cache

    clear_replay_cache()
    parsed = getattr(tracestore, "_PARSED_TRACES", None)
    if parsed is not None:
        parsed.clear()


class Pass:
    """What one pass over the job list produced."""

    def __init__(self, result, seconds: float, cpu_seconds: float,
                 ok_jobs: int, instructions: int) -> None:
        self.result = result
        self.seconds = seconds
        self.cpu_seconds = cpu_seconds
        self.ok_jobs = ok_jobs
        self.instructions = instructions
        #: Reference seconds per measured second around this pass.
        self.factor = 1.0

    def calibrate(self, before: float, after: float) -> "Pass":
        self.factor = calibration.factor(before, after)
        return self

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.factor

    @property
    def rate(self) -> float:
        """Completed attestations per reference second."""
        return self.ok_jobs / self.reference_seconds

    @property
    def latencies(self) -> List[float]:
        """Per-job report latencies, in reference seconds."""
        return [job.prover_seconds * self.factor for job in self.result.results]


class CampaignWorkload:
    """One campaign workload bound to a seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.pipeline = PIPELINES[name]
        self.outcomes = Outcomes()
        self.spec = None
        #: Per-job identities of the set-up pass; every later pass, traced
        #: or not, and the other pipeline must reproduce them exactly.
        self.reference: Optional[list] = None

    # --------------------------------------------------------------- passes
    def run_pass(self, pipeline: Optional[str] = None) -> Pass:
        from repro.service import CampaignRunner, MeasurementDatabase, TraceStore

        _cold_replay_caches()
        runner = CampaignRunner(database=MeasurementDatabase(),
                                trace_store=TraceStore())
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = runner.run(self.spec, workers=1,
                            pipeline=pipeline or self.pipeline)
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        identities = result.identities()
        ok_jobs = instructions = 0
        for index, job in enumerate(result.results):
            got = "ok" if job.ok else job.reason
            if self.reference is not None \
                    and identities[index] != self.reference[index]:
                got = "different (A, L) or outputs than the reference pass"
            if self.outcomes.record("ok", got, job.job.job_id):
                ok_jobs += 1
                instructions += job.instructions
        return Pass(result, seconds, cpu_seconds, ok_jobs, instructions)

    def passes_for(self, seconds: float, minimum: int) -> List[Pass]:
        """Calibrated passes until ``seconds`` are used (at least ``minimum``)."""
        passes: List[Pass] = []
        started = time.perf_counter()
        before = calibration.speed()
        while len(passes) < minimum or (
                time.perf_counter() - started
                + median([p.seconds for p in passes]) <= seconds):
            timed = self.run_pass()
            after = calibration.speed()
            passes.append(timed.calibrate(before, after))
            before = after
        return passes

    # ------------------------------------------------------------ interface
    def setup(self) -> None:
        """Build the job list and fill every cache with one untimed pass."""
        self.spec = build_spec(self.seed)
        warm = self.run_pass()
        self.reference = warm.result.identities()

    def measure(self, seconds: float) -> Dict[str, float]:
        """The end-to-end metrics (minus ``setup_s``) over timed passes."""
        passes = self.passes_for(seconds, MIN_PASSES)
        rss_mb = peak_rss_mb()
        windows = group_samples(
            [[1e3 * s for s in p.latencies] for p in passes], LATENCY_WINDOW)
        p99 = windowed_quantile(windows, 0.99)
        if p99 is None:
            raise RuntimeError("too few job latencies for a p99")
        return {
            "attest_per_s": median([p.rate for p in passes]),
            "attested_minstr_per_s": median(
                [p.instructions / p.reference_seconds / 1e6 for p in passes]),
            "cpu_ms_per_attest": median(
                [1e3 * p.cpu_seconds * p.factor / max(1, p.ok_jobs)
                 for p in passes]),
            "verify_p50_ms": windowed_quantile(windows, 0.5, 0),
            "verify_p99_ms": p99,
            "peak_rss_mb": rss_mb,
            "samples": sum(len(window) for window in windows),
            "passes": len(passes),
            "wall.attest_per_s": median([p.ok_jobs / p.seconds for p in passes]),
            "host.speed_factor": median([p.factor for p in passes]),
        }

    def check(self) -> None:
        """One untimed pass through the other pipeline: same identities.

        This is where ``(A, L)`` of every (scheme, program, inputs) is
        compared byte for byte between the live and the capture pipeline.
        """
        other = "capture" if self.pipeline == "live" else "live"
        self.run_pass(other)

    def close(self) -> None:
        """Nothing outlives a pass: runners and stores are per pass."""

    def trace(self, seconds: float) -> Dict[str, float]:
        """Per-layer metrics: traced set-up, then untraced and traced passes
        alternating for ``seconds``, so both sample the same host drift."""
        from repro.cpu.compile import COMPILE_CACHE

        tracer = tracing.Tracer()
        compiles = COMPILE_CACHE.compiles
        patcher = tracing.install(tracer)
        try:
            self.setup()
        finally:
            patcher.uninstall()
        setup_spans = tracer.snapshot()

        # Which engine each Cpu.run takes without the layer wrappers: the
        # probe wraps Cpu.run alone, which cannot change the engine choice.
        probe = tracing.Tracer()
        patcher = tracing.install_engine_probe(probe)
        try:
            self.run_pass()
        finally:
            patcher.uninstall()
        engines = probe.snapshot()["engines"]

        untraced: List[Pass] = []
        traced: List[Pass] = []
        started = time.perf_counter()
        speed = calibration.speed()
        while len(traced) < 2 or time.perf_counter() - started < seconds:
            plain = self.run_pass()
            middle = calibration.speed()
            untraced.append(plain.calibrate(speed, middle))
            patcher = tracing.install(tracer)
            try:
                timed = self.run_pass()
            finally:
                patcher.uninstall()
            speed = calibration.speed()
            traced.append(timed.calibrate(middle, speed))
        window = tracing.diff_snapshots(tracer.snapshot(), setup_spans)
        if window["engines"] != engines * len(traced):
            self.outcomes.record(
                "same engines", "traced engines %s vs untraced %s per pass" % (
                    _tally(window["engines"]), _tally(engines)))

        metrics = tracing.layer_metrics(
            window, sum(p.seconds for p in traced), setup_spans, len(traced))
        metrics["cpu.plan_compiles"] = COMPILE_CACHE.compiles - compiles
        result = traced[-1].result
        capture = result.capture_stats
        metrics["service.dedup_rate"] = (
            capture["deduped_jobs"] / capture["jobs"] if capture else 0.0)
        database = result.database_stats
        replays = database["worker_replay_hits"] \
            + database["worker_replay_misses"]
        metrics["service.replay_cache_hit_rate"] = (
            database["worker_replay_hits"] / replays if replays else 0.0)
        metrics["server.cpu_frac"] = 0.0
        metrics["loadgen.cpu_frac"] = 0.0
        metrics["trace.overhead_frac"] = median(
            [p.rate for p in untraced]) / median([p.rate for p in traced]) - 1
        return metrics


def _tally(engines: list) -> dict:
    tally: Dict[str, int] = {}
    for engine in engines:
        tally[str(engine)] = tally.get(str(engine), 0) + 1
    return tally
