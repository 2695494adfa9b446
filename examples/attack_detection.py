#!/usr/bin/env python3
"""Attack-detection matrix across the three run-time attack classes (E5).

For every registered attack scenario the script runs a benign execution and
an attacked execution through the full attestation protocol and reports which
schemes notice the attack: static (binary) attestation, C-FLAT (software CFA,
same measurement as LO-FAT) and LO-FAT.

Usage::

    python examples/attack_detection.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.attacks import all_attacks
from repro.attestation import Prover, Verifier
from repro.schemes import CFlatAttestation, StaticAttestation
from repro.cpu.core import Cpu, CpuConfig
from repro.workloads import get_workload


def main() -> int:
    rows = []
    for scenario in all_attacks():
        workload = get_workload(scenario.workload_name)
        program = workload.build()

        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

        benign_challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
        benign_report = prover.attest(benign_challenge)
        benign_verdict = verifier.verify(benign_report)

        prover.install_attack(scenario.prover_hook(program))
        attack_challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
        attacked_report = prover.attest(attack_challenge)
        attacked_verdict = verifier.verify(attacked_report)
        prover.clear_attacks()

        # C-FLAT computes the same path measurement, so it detects the same
        # deviations (at its much higher run-time cost).
        cflat = CFlatAttestation()
        traced = CpuConfig(collect_trace=True)
        benign_cpu = Cpu(program, inputs=list(scenario.challenge_inputs),
                         config=traced)
        benign_run = benign_cpu.run()
        attacked_cpu = Cpu(program, inputs=list(scenario.challenge_inputs),
                           config=traced)
        scenario.install_on(attacked_cpu, program)
        attacked_run = attacked_cpu.run()
        cflat_detects = (cflat.measure_trace(benign_run.trace)
                         != cflat.measure_trace(attacked_run.trace))

        static = StaticAttestation()
        static_detects = static.detects_runtime_attack(benign_run, attacked_run, program)

        rows.append({
            "attack": scenario.name,
            "class": scenario.attack_class,
            "workload": scenario.workload_name,
            "benign_accepted": benign_verdict.accepted,
            "output_change": "%r -> %r" % (benign_report.output, attacked_report.output),
            "static": "detect" if static_detects else "miss",
            "cflat": "detect" if cflat_detects else "miss",
            "lofat": "detect" if not attacked_verdict.accepted else "miss",
        })

    print(format_table(
        rows,
        columns=["attack", "class", "workload", "benign_accepted",
                 "output_change", "static", "cflat", "lofat"],
        title="Run-time attack detection by attestation scheme",
    ))
    missed = [row for row in rows if row["lofat"] != "detect"]
    print("\nLO-FAT detected %d/%d attacks." % (len(rows) - len(missed), len(rows)))
    return 0 if not missed else 1


if __name__ == "__main__":
    raise SystemExit(main())
