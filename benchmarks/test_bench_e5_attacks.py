"""E5 -- Attack-detection matrix (paper Figure 1 + §6.3).

Runs every attack scenario (classes 1-3 of Figure 1) through the full
attestation protocol and reports which schemes detect it: static (binary)
attestation misses all of them, C-FLAT and LO-FAT detect all of them --
LO-FAT at zero processor overhead.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.attacks import all_attacks
from repro.attestation import Prover, Verifier
from repro.schemes import CFlatAttestation, StaticAttestation
from repro.cpu.core import Cpu, CpuConfig
from repro.workloads import get_workload


def _run_scenario(scenario):
    workload = get_workload(scenario.workload_name)
    program = workload.build()

    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

    benign_report = prover.attest(
        verifier.challenge(workload.name, scenario.challenge_inputs))
    benign_verdict = verifier.verify(benign_report)

    prover.install_attack(scenario.prover_hook(program))
    attacked_report = prover.attest(
        verifier.challenge(workload.name, scenario.challenge_inputs))
    attacked_verdict = verifier.verify(attacked_report)

    cflat = CFlatAttestation()
    traced = CpuConfig(collect_trace=True)
    benign_run = Cpu(program, inputs=list(scenario.challenge_inputs),
                     config=traced).run()
    attacked_cpu = Cpu(program, inputs=list(scenario.challenge_inputs),
                       config=traced)
    scenario.install_on(attacked_cpu, program)
    attacked_run = attacked_cpu.run()
    cflat_detects = (cflat.measure_trace(benign_run.trace)
                     != cflat.measure_trace(attacked_run.trace))
    static_detects = StaticAttestation().detects_runtime_attack(
        benign_run, attacked_run, program)

    return {
        "attack": scenario.name,
        "class": scenario.attack_class,
        "workload": scenario.workload_name,
        "benign_verdict": benign_verdict.reason.value,
        "benign_output": benign_report.output,
        "attacked_output": attacked_report.output,
        "static": "detect" if static_detects else "miss",
        "cflat": "detect" if cflat_detects else "detect" if cflat_detects else "miss",
        "lofat": "detect" if not attacked_verdict.accepted else "miss",
        "lofat_reason": attacked_verdict.reason.value,
    }


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
        assert row["benign_verdict"] == "accepted"
        assert row["static"] == "miss", "static attestation cannot see run-time attacks"
        assert row["cflat"] == "detect"
        assert row["lofat"] == "detect", "%s escaped LO-FAT" % row["attack"]
