"""E10 -- Attestation campaign service: parallel throughput and caching.

The service-layer experiment: the full E1-E9 job population (every workload
under every swept LO-FAT configuration, plus every attack scenario) is run
end to end through the campaign runner, comparing

* sequential vs multi-process prover fan-out (throughput scaling), and
* cold vs warm measurement database (repeat-verification speedup).

Parallel campaigns must be *result-identical* to sequential ones -- the
fan-out only reorders work in time, never the recombined verdicts.  The
throughput assertion scales with the machine: on boxes with fewer than four
CPUs the parallel run cannot demonstrate a 2x speedup, so there the
benchmark only reports the measured numbers (the identity and caching
assertions always hold).
"""

from __future__ import annotations

import multiprocessing

from repro.analysis.report import format_table
from repro.service import (
    CampaignRunner,
    MeasurementDatabase,
    experiment_campaign,
    full_campaign,
)
from repro.service.worker import clear_replay_cache

CPU_COUNT = multiprocessing.cpu_count()
WORKERS = max(2, min(4, CPU_COUNT))


def test_e10_parallel_campaign_throughput(benchmark, report_writer):
    # Timed kernel: one small campaign through the sequential runner.
    benchmark(lambda: CampaignRunner().run(experiment_campaign("e4")))

    spec = full_campaign()
    sequential = CampaignRunner().run(spec, workers=1)
    parallel = CampaignRunner().run(spec, workers=WORKERS)

    # The fan-out must not change a single verdict, measurement or output.
    assert parallel.identities() == sequential.identities()
    assert sequential.ok and parallel.ok

    speedup = (sequential.prover_seconds / parallel.prover_seconds
               if parallel.prover_seconds else 0.0)
    rows = [
        {
            "mode": "sequential",
            "workers": 1,
            "jobs": len(sequential),
            "prover_s": sequential.prover_seconds,
            "verify_s": sequential.verify_seconds,
            "jobs_per_s": len(sequential) / sequential.total_seconds,
            "speedup": 1.0,
        },
        {
            "mode": "parallel",
            "workers": WORKERS,
            "jobs": len(parallel),
            "prover_s": parallel.prover_seconds,
            "verify_s": parallel.verify_seconds,
            "jobs_per_s": len(parallel) / parallel.total_seconds,
            "speedup": speedup,
        },
    ]
    table = format_table(
        rows,
        title="E10: campaign prover fan-out, sequential vs %d workers "
              "(%d CPUs available)" % (WORKERS, CPU_COUNT),
    )
    report_writer("e10_campaign_throughput", table)

    if CPU_COUNT >= 4:
        assert speedup >= 2.0, (
            "expected >= 2x prover throughput from %d workers on %d CPUs, "
            "measured %.2fx" % (WORKERS, CPU_COUNT, speedup)
        )


def test_e10_measurement_cache_speedup(benchmark, report_writer):
    spec = full_campaign()
    database = MeasurementDatabase()
    runner = CampaignRunner(database=database)

    # Cold references replay through the process's replay memo: start it
    # empty, or the previous test's replays would serve them.
    clear_replay_cache()
    cold = runner.run(spec)
    assert cold.ok
    cold_stats = database.stats()
    database.reset_counters()

    warm = runner.run(spec)
    assert warm.ok
    warm_stats = database.stats()

    # Warm verification is pure lookup: no new reference executions at all.
    assert warm_stats["entries"] == cold_stats["entries"]
    assert warm_stats["misses"] == 0
    assert all(result.cache_hit for result in warm.results
               if result.cache_hit is not None)
    assert warm.identities() == cold.identities()

    speedup = (cold.verify_seconds / warm.verify_seconds
               if warm.verify_seconds else float("inf"))
    assert warm.verify_seconds < cold.verify_seconds
    assert speedup >= 2.0, (
        "expected >= 2x verification speedup from the measurement database, "
        "measured %.2fx" % speedup
    )

    # Timed kernel: verifying the whole campaign against the warm database.
    benchmark(lambda: runner.run(spec))

    rows = [
        {"database": "cold", "verify_s": cold.verify_seconds,
         "entries": cold_stats["entries"], "hits": cold_stats["hits"],
         "misses": cold_stats["misses"], "speedup": 1.0},
        {"database": "warm", "verify_s": warm.verify_seconds,
         "entries": warm_stats["entries"], "hits": warm_stats["hits"],
         "misses": warm_stats["misses"], "speedup": speedup},
    ]
    table = format_table(
        rows,
        title="E10b: repeat verification, cold vs warm measurement database "
              "(%d jobs)" % len(warm),
    )
    report_writer("e10b_campaign_cache", table)
