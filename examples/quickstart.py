#!/usr/bin/env python3
"""Quickstart: attest one workload end to end.

Runs the syringe-pump firmware on the simulated Pulpino core with the LO-FAT
engine attached, then plays the full challenge-response protocol between a
verifier and a prover and prints the verdict.

Usage::

    python examples/quickstart.py [workload-name]
"""

from __future__ import annotations

import sys

from repro import attest_workload, get_workload
from repro.attestation import Prover, Verifier


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "syringe_pump"
    workload = get_workload(name)
    print("Workload     : %s" % workload.name)
    print("Description  : %s" % workload.description)
    print("Inputs (i)   : %s" % workload.inputs)

    # --- 1. Stand-alone attested execution -------------------------------
    # attest_workload measures through the one run-and-measure sequence,
    # get_scheme("lofat").measure_execution(program, inputs).
    result, measurement = attest_workload(name)
    print("\n--- attested execution ---")
    print("Program output        : %r" % result.output)
    print("Retired instructions  : %d" % result.instructions)
    print("Cycles                : %d (identical with or without LO-FAT)" % result.cycles)
    print("Control-flow events   : %d" % measurement.stats["control_flow_events"])
    print("Pairs hashed          : %d" % measurement.stats["pairs_hashed"])
    print("Pairs compressed      : %d (loop repetition)" % measurement.stats["pairs_compressed"])
    print("Measurement A         : %s..." % measurement.measurement_hex[:48])
    print("Loop metadata L       : %d loop executions, %d bytes"
          % (len(measurement.metadata), measurement.metadata.size_bytes))
    for loop in measurement.metadata:
        paths = ", ".join(
            "%s x%d" % (path.encoding.bits or "-", path.iterations)
            for path in loop.paths
        )
        print("    loop @%#06x depth %d: %d iterations, paths [%s]"
              % (loop.entry, loop.depth, loop.iterations, paths))

    # --- 2. Full challenge-response protocol ------------------------------
    program = workload.build()
    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

    challenge = verifier.challenge(workload.name, workload.inputs)
    report = prover.attest(challenge)
    verdict = verifier.verify(report)

    print("\n--- attestation protocol ---")
    print("Challenge nonce       : %s" % challenge.nonce.hex())
    print("Report size           : %d bytes" % report.size_bytes)
    print("Signature valid, path valid: %s (%s)" % (verdict.accepted, verdict.reason.value))
    return 0 if verdict.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
