#!/usr/bin/env python3
"""The syringe-pump overdose scenario (paper §2, attack class 2).

The verifier asks the pump to dispense 5 units.  A memory-corruption exploit
on the device raises the in-memory quantity to 9 while the dispense loop is
running.  Static attestation sees nothing (the binary is unchanged); LO-FAT's
loop metadata reports 9 iterations of the motor loop, so golden-replay
verification rejects the report.

Usage::

    python examples/syringe_pump_attack.py
"""

from __future__ import annotations

from repro.attacks import get_attack
from repro.attestation import Prover, Verifier
from repro.workloads import get_workload


def main() -> int:
    scenario = get_attack("syringe_overdose")
    workload = get_workload(scenario.workload_name)
    program = workload.build()

    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

    # ----- benign run ------------------------------------------------------
    challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
    report = prover.attest(challenge)
    verdict = verifier.verify(report)
    benign_loops = report.metadata.loops_at_entry(program.symbol("dispense_loop"))
    print("Benign run     : output=%r, verdict=%s" % (report.output, verdict.reason.value))
    if benign_loops:
        print("  dispense loop iterations reported in L: %d" % benign_loops[0].iterations)

    # ----- attacked run ----------------------------------------------------
    prover.install_attack(scenario.prover_hook(program))
    challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
    attacked_report = prover.attest(challenge)
    attacked_verdict = verifier.verify(attacked_report)
    attacked_loops = attacked_report.metadata.loops_at_entry(program.symbol("dispense_loop"))
    print("Attacked run   : output=%r, verdict=%s"
          % (attacked_report.output, attacked_verdict.reason.value))
    if attacked_loops:
        print("  dispense loop iterations reported in L: %d" % attacked_loops[0].iterations)

    # ----- what static attestation sees ------------------------------------
    # The same attacked execution, challenged under the static scheme: the
    # image hash is unchanged, so the verifier accepts the report.
    challenge = verifier.challenge(workload.name, scenario.challenge_inputs,
                                   scheme="static")
    static_verdict = verifier.verify(prover.attest(challenge))
    print("Static attestation accepts the attacked run: %s"
          % static_verdict.accepted)
    print("\nLO-FAT detected the overdose: %s" % (not attacked_verdict.accepted))
    return 0 if not attacked_verdict.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
