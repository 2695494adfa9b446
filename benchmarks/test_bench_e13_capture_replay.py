"""E13 -- Capture-once / verify-many campaign speedup.

The two-stage pipeline (content-addressed trace store + attest-from-trace)
must beat capture-per-job (the ``pipeline="live"`` baseline: one fused
simulate+measure execution per job) by >= 3x on a scheme-matrix sweep, while
staying result-identical.  The sweep is the E11 preset -- every loop-heavy
workload and every attack under lofat x cflat x static -- run for several
re-attestation rounds (``repeats``), the service's steady-state shape: the
live pipeline re-simulates every prover execution each round, while the
two-stage pipeline simulates each unique execution exactly once and serves
every further (scheme, config, round) from the stored trace and the replay
cache.

The cold (single-round) speedup is reported too: even there, N-scheme
sweeps pay one CPU simulation per distinct execution instead of N.

Both pipelines run the production (compiled) engine, so the ratio
measures the pipelines, not an engine difference.  Cheap compiled
re-simulation is what the capture pipeline's lead is measured against.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cpu.core import CpuConfig
from repro.service import CampaignRunner, experiment_campaign
from repro.service.worker import clear_replay_cache

#: Timing repetitions per pipeline point; best-of-N filters scheduler noise.
REPEATS = 3
#: Re-attestation rounds of the scheme-matrix sweep (spec.repeats).  Six
#: rounds measure ~3.7x on the compiled engine; the advantage only grows
#: with rounds (the live pipeline re-simulates every round, the two-stage
#: one serves them from the store).
ROUNDS = 6
#: The acceptance bar on the multi-round sweep.
TARGET_SPEEDUP = 3.0
#: The engine both pipelines run for the gated comparison.
GATED_ENGINE = "compiled"


def _best_run(spec, pipeline):
    best = None
    for _ in range(REPEATS):
        if pipeline == "capture":
            # Fresh store and replay cache: measure the cold two-stage cost,
            # not a warm-store rerun.
            clear_replay_cache()
        runner = CampaignRunner(cpu_config=CpuConfig(engine=GATED_ENGINE))
        result = runner.run(spec, pipeline=pipeline)
        assert result.ok, [r.job.job_id for r in result.failures]
        if best is None or result.total_seconds < best.total_seconds:
            best = result
    return best


def test_e13_capture_once_verify_many_speedup(benchmark, report_writer):
    # Warm the process-wide caches (assembly, decode, CFG knowledge) so both
    # pipelines are measured on equal footing.
    warmup = experiment_campaign("e11")
    CampaignRunner(cpu_config=CpuConfig(engine=GATED_ENGINE)).run(
        warmup, pipeline="live")

    rows = []
    speedups = {}
    for rounds in (1, ROUNDS):
        spec = experiment_campaign("e11")
        spec.repeats = rounds
        live = _best_run(spec, "live")
        two_stage = _best_run(spec, "capture")

        # The acceptance bar's other half: byte-equivalent recombination.
        assert two_stage.identities() == live.identities()
        assert all(result.replayed for result in two_stage.results)

        stats = two_stage.capture_stats
        speedup = live.total_seconds / two_stage.total_seconds
        speedups[rounds] = speedup
        rows.append({
            "rounds": rounds,
            "jobs": len(live.results),
            "executions_live": len(live.results),
            "executions_captured": stats["captured"],
            "deduped_jobs": stats["deduped_jobs"],
            "live_s": round(live.total_seconds, 4),
            "two_stage_s": round(two_stage.total_seconds, 4),
            "speedup": round(speedup, 2),
        })

    # Capture dedup is structural: the sweep's unique executions do not grow
    # with schemes, configs or rounds.
    assert len({row["executions_captured"] for row in rows}) == 1

    # Timed kernel: one two-stage campaign against a warm store (the
    # verify-many steady state).
    spec = experiment_campaign("e11")
    warm_runner = CampaignRunner()
    warm_runner.run(spec)
    benchmark(lambda: warm_runner.run(spec))

    table = format_table(
        rows,
        columns=["rounds", "jobs", "executions_live",
                 "executions_captured", "deduped_jobs", "live_s",
                 "two_stage_s", "speedup"],
        title="E13: capture-once/verify-many vs capture-per-job "
              "(e11 scheme matrix)",
    )
    report_writer(
        "e13_capture_replay", table,
        metrics={
            "speedup_rounds_%d" % ROUNDS: speedups[ROUNDS],
            "speedup_cold": speedups[1],
        },
    )

    # The acceptance bar: >= 3x on the multi-round scheme-matrix sweep.
    assert speedups[ROUNDS] >= TARGET_SPEEDUP, rows
    # Even a cold single round must come out ahead of capture-per-job.
    assert speedups[1] >= 1.1, rows


def test_e13_two_stage_is_default(report_writer):
    """The capture pipeline is opt-out: run() defaults to it."""
    result = CampaignRunner().run(experiment_campaign("e5"))
    assert result.pipeline == "capture"
    assert result.ok
    assert all(job_result.replayed for job_result in result.results)
