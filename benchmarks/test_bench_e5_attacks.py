"""E5 -- Attack-detection matrix (paper Figure 1 + §6.3).

Runs every attack scenario (classes 1-3 of Figure 1) through the full
attestation protocol under each scheme -- the same challenge ->
``Prover.attest`` -> ``Verifier.verify`` sequence for static, C-FLAT and
LO-FAT -- and reports which schemes detect it: static (binary) attestation
misses all of them, C-FLAT and LO-FAT detect all of them -- LO-FAT at zero
processor overhead.  The output columns are LO-FAT's reports.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.attacks import all_attacks
from repro.attestation import Prover, Verifier
from repro.workloads import get_workload

SCHEMES = ("static", "cflat", "lofat")


def _run_scenario(scenario):
    """Benign then attacked challenge -> attest -> verify under each scheme."""
    workload = get_workload(scenario.workload_name)
    program = workload.build()

    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

    def attest(scheme):
        report = prover.attest(verifier.challenge(
            workload.name, scenario.challenge_inputs, scheme=scheme))
        return report, verifier.verify(report)

    row = {
        "attack": scenario.name,
        "class": scenario.attack_class,
        "workload": scenario.workload_name,
    }
    for scheme in SCHEMES:
        benign_report, benign_verdict = attest(scheme)
        prover.install_attack(scenario.prover_hook(program))
        attacked_report, attacked_verdict = attest(scheme)
        prover.clear_attacks()
        row[scheme] = "miss" if attacked_verdict.accepted else "detect"
        row[scheme + "_benign_verdict"] = benign_verdict.reason.value
        if scheme == "lofat":
            row.update(
                benign_output=benign_report.output,
                attacked_output=attacked_report.output,
                lofat_reason=attacked_verdict.reason.value,
            )
    return row


def test_e5_attack_detection_matrix(benchmark, report_writer):
    scenarios = all_attacks()
    benchmark(lambda: _run_scenario(scenarios[0]))

    rows = [_run_scenario(scenario) for scenario in scenarios]
    table = format_table(
        rows,
        columns=["attack", "class", "workload", "benign_output", "attacked_output",
                 "static", "cflat", "lofat", "lofat_reason"],
        title="E5: run-time attack detection by attestation scheme",
    )
    report_writer("e5_attacks", table)

    assert {row["class"] for row in rows} == {1, 2, 3}
    for row in rows:
        for scheme in SCHEMES:
            assert row[scheme + "_benign_verdict"] == "accepted", scheme
        assert row["static"] == "miss", "static attestation cannot see run-time attacks"
        assert row["cflat"] == "detect"
        assert row["lofat"] == "detect", "%s escaped LO-FAT" % row["attack"]
