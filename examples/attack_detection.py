#!/usr/bin/env python3
"""Attack-detection matrix across the three run-time attack classes (E5).

For every registered attack scenario the script runs a benign execution and
an attacked execution through the full attestation protocol (challenge ->
prover -> verifier) under each scheme and reports which schemes notice the
attack: static (binary) attestation, C-FLAT (software CFA, same measurement
as LO-FAT) and LO-FAT.

Usage::

    python examples/attack_detection.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.attacks import all_attacks
from repro.attestation import Prover, Verifier
from repro.workloads import get_workload

SCHEMES = ("static", "cflat", "lofat")


def main() -> int:
    rows = []
    for scenario in all_attacks():
        workload = get_workload(scenario.workload_name)
        program = workload.build()

        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

        def attest(scheme):
            challenge = verifier.challenge(
                workload.name, scenario.challenge_inputs, scheme=scheme)
            report = prover.attest(challenge)
            return report, verifier.verify(report)

        row = {
            "attack": scenario.name,
            "class": scenario.attack_class,
            "workload": scenario.workload_name,
        }
        # Every scheme answers the same challenge sequence; C-FLAT computes
        # the same path measurement as LO-FAT, so it detects the same
        # deviations (at its much higher run-time cost), while static
        # attestation only hashes the unchanged binary.
        for scheme in SCHEMES:
            benign_report, benign_verdict = attest(scheme)
            prover.install_attack(scenario.prover_hook(program))
            attacked_report, attacked_verdict = attest(scheme)
            prover.clear_attacks()
            row[scheme] = "miss" if attacked_verdict.accepted else "detect"
            if scheme == "lofat":
                row["benign_accepted"] = benign_verdict.accepted
                row["output_change"] = "%r -> %r" % (
                    benign_report.output, attacked_report.output)
        rows.append(row)

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
