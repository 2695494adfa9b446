"""E11 -- Scheme matrix: LO-FAT vs C-FLAT vs static through the unified API.

The paper's comparative claims, reproduced through one code path: every
scheme is driven by the same challenge-response protocol, measured by its
:class:`repro.schemes.MeasurementSession`, and verified against the shared
measurement database.  The table regenerates

* the overhead comparison (§6.1): LO-FAT and static attest at zero extra
  cycles, C-FLAT pays a per-control-flow-event cost;
* the report sizes (64-byte control-flow hashes + loop metadata vs the
  32-byte image hash);
* the detection matrix (Figure 1 / §2): control-flow schemes reject every
  attack class, static attestation accepts all of them.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.attacks import ATTACK_REGISTRY
from repro.schemes import get_scheme, scheme_names
from repro.service import CampaignRunner, experiment_campaign
from repro.workloads import get_workload

_WORKLOADS = ["figure4_loop", "crc32", "bubble_sort", "fir_filter",
              "matmul", "syringe_pump"]


def _attest_once(scheme_name, workload_name):
    """One attested execution through the scheme API; returns (result, m)."""
    workload = get_workload(workload_name)
    program = workload.build()
    result, measured = get_scheme(scheme_name).measure_execution(
        program, list(workload.inputs))
    return program, result, measured


def test_e11_overhead_and_report_size_matrix(benchmark, report_writer):
    # Timed kernel: the full scheme matrix on the paper's Figure 4 loop.
    benchmark(lambda: [_attest_once(name, "figure4_loop")
                       for name in scheme_names()])

    rows = []
    for workload_name in _WORKLOADS:
        for scheme_name in scheme_names():
            _, result, measured = _attest_once(scheme_name, workload_name)
            # The core's cycles are the baseline (a monitor never stalls
            # it); the session's stats carry what attesting adds.
            stall = measured.stats["processor_stall_cycles"]
            rows.append({
                "workload": workload_name,
                "scheme": scheme_name,
                "baseline_cycles": result.cycles,
                "attested_cycles": result.cycles + stall,
                "overhead_%": round(100.0 * (stall / result.cycles), 2),
                "measurement_B": len(measured.measurement),
                "metadata_B": measured.metadata.size_bytes,
            })
    table = format_table(
        rows,
        columns=["workload", "scheme", "baseline_cycles", "attested_cycles",
                 "overhead_%", "measurement_B", "metadata_B"],
        title="E11: attestation cost and report size per scheme",
    )

    # Shape checks mirroring the paper's claims.
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row)
    assert all(row["overhead_%"] == 0.0 for row in by_scheme["lofat"])
    assert all(row["overhead_%"] == 0.0 for row in by_scheme["static"])
    assert all(row["overhead_%"] > 0.0 for row in by_scheme["cflat"])
    assert all(row["measurement_B"] == 64
               for row in by_scheme["lofat"] + by_scheme["cflat"])
    assert all(row["measurement_B"] == 32 and row["metadata_B"] == 2
               for row in by_scheme["static"])

    report_writer("e11_scheme_matrix", table + "\n\n"
                  + _detection_matrix() + "\n\n" + _campaign_summary())


def _detection_matrix() -> str:
    """Attack-detection matrix via the scheme-parameterized campaign."""
    result = CampaignRunner().run(experiment_campaign("e11"), workers=2)
    assert result.ok, [r.job.job_id for r in result.failures]

    detected = {}
    for job_result in result.results:
        if job_result.job.attack is None:
            continue
        key = (job_result.job.attack, job_result.job.scheme)
        detected[key] = job_result.detected
    rows = []
    for attack in sorted(ATTACK_REGISTRY):
        row = {"attack": attack}
        for scheme in scheme_names():
            row[scheme] = "detected" if detected[(attack, scheme)] else "MISSED"
        rows.append(row)

    # Control-flow schemes catch every class; static misses every one.
    assert all(row["lofat"] == "detected" for row in rows)
    assert all(row["cflat"] == "detected" for row in rows)
    assert all(row["static"] == "MISSED" for row in rows)

    return format_table(
        rows,
        columns=["attack"] + scheme_names(),
        title="E11b: attack detection per scheme (campaign, database-verified)",
    )


def _campaign_summary() -> str:
    from repro.analysis.campaign_report import format_campaign_summary

    sequential = CampaignRunner().run(experiment_campaign("e11"), workers=1)
    parallel = CampaignRunner().run(experiment_campaign("e11"), workers=4)
    assert parallel.identities() == sequential.identities()
    return format_campaign_summary(parallel)
