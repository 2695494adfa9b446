"""E16 -- StaticPolicy pre-screen vs golden-replay rejection cost.

A compromised device whose run over-iterates a loop produces a report the
verifier must reject.  Without a policy the rejection is discovered by
golden replay: the verifier re-simulates the whole program to compute the
reference measurement, then compares.  With a :class:`StaticPolicy`
installed, the infeasible loop record is rejected in the structural
metadata check -- before any simulation is spent on the report.  This
experiment measures the per-report rejection cost of both paths and
asserts the pre-screen is at least 5x cheaper.

Each tampered report carries a *distinct* iteration count so the
verifier's memoised structural verdicts cannot serve a cached rejection;
the numbers are honest per-report costs.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.attestation import Prover, Verifier
from repro.attestation.crypto import sign_report
from repro.attestation.protocol import AttestationReport
from repro.dataflow import analyze_program
from repro.schemes import VerdictReason
from repro.workloads import get_workload

WORKLOAD = "crc32"
ROUNDS = 12


def _protocol():
    workload = get_workload(WORKLOAD)
    program = workload.build()
    prover = Prover({workload.name: program}, device_id="device-e16")
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key(
        "device-e16", prover.keystore.export_for_verifier())
    return workload, program, prover, verifier


def _tampered_report(benign, prover, challenge, extra_iterations, entry):
    """The benign report with one loop record inflated and re-signed.

    Models a compromised prover whose loop monitor output was tampered
    with: the metadata no longer matches any feasible execution, but the
    signature is valid (the attacker runs on the device).
    """
    from dataclasses import replace

    metadata = benign.metadata.__class__.from_bytes(benign.metadata.to_bytes())
    target = next(
        r for r in metadata.loops if r.entry == entry and r.iterations > 0)
    target.iterations += extra_iterations
    # Keep the per-path counts consistent with the inflated total, so the
    # tamper survives the CFG structural checks and (without a policy) is
    # only caught by full replay.
    target.paths[0] = replace(
        target.paths[0],
        iterations=target.paths[0].iterations + extra_iterations,
    )
    payload = benign.measurement + metadata.to_bytes()
    return AttestationReport(
        program_id=benign.program_id,
        measurement=benign.measurement,
        metadata=metadata,
        nonce=challenge.nonce,
        signature=sign_report(payload, challenge.nonce, prover.keystore),
        exit_code=benign.exit_code,
        output=benign.output,
        scheme=benign.scheme,
    )


def _timed_rejections(workload, prover, verifier, benign, entry,
                      expect_reason):
    """Mean seconds per rejected report over ``ROUNDS`` distinct reports."""
    total = 0.0
    for round_index in range(ROUNDS):
        challenge = verifier.challenge(workload.name, list(workload.inputs))
        report = _tampered_report(
            benign, prover, challenge,
            extra_iterations=1000 + round_index, entry=entry)
        started = time.perf_counter()
        verdict = verifier.verify(report, device_id="device-e16")
        total += time.perf_counter() - started
        assert not verdict.accepted
        assert verdict.reason is expect_reason, verdict
    return total / ROUNDS


def test_e16_policy_prescreen_vs_replay_rejection(benchmark, report_writer):
    workload, program, prover, verifier = _protocol()
    benign_challenge = verifier.challenge(workload.name, list(workload.inputs))
    benign = prover.attest(benign_challenge)
    assert verifier.verify(benign, device_id="device-e16").accepted

    # The loop the tamper targets must carry a statically proven bound,
    # otherwise the policy path would have nothing to screen.
    policy = analyze_program(program).policy
    entry = next(
        r.entry for r in benign.metadata.loops
        if r.iterations > 0 and policy.bound_for(r.entry) is not None)

    # Replay path: no policy installed -- every rejection pays a full
    # reference re-simulation before the mismatch is noticed.
    replay_s = _timed_rejections(
        workload, prover, verifier, benign, entry,
        VerdictReason.METADATA_MISMATCH)

    # Policy path: the same tampered reports die in the structural check.
    verifier.install_policy(workload.name)
    policy_s = _timed_rejections(
        workload, prover, verifier, benign, entry,
        VerdictReason.POLICY_VIOLATION)

    # Benign reports still verify with the policy installed.
    challenge = verifier.challenge(workload.name, list(workload.inputs))
    assert verifier.verify(
        prover.attest(challenge), device_id="device-e16").accepted

    # Timed kernel for the pytest-benchmark table: one pre-screened
    # rejection end to end (challenge + tampered report + verdict).
    counter = {"n": 0}

    def kernel():
        counter["n"] += 1
        chall = verifier.challenge(workload.name, list(workload.inputs))
        report = _tampered_report(
            benign, prover, chall,
            extra_iterations=10_000 + counter["n"], entry=entry)
        assert not verifier.verify(report, device_id="device-e16").accepted

    benchmark(kernel)

    speedup = replay_s / policy_s
    rows = [
        {
            "rejection path": "golden replay",
            "verdict": "metadata_mismatch",
            "ms/report": round(replay_s * 1e3, 3),
            "speedup": 1.0,
        },
        {
            "rejection path": "policy pre-screen",
            "verdict": "policy_violation",
            "ms/report": round(policy_s * 1e3, 3),
            "speedup": round(speedup, 1),
        },
    ]
    analysis = analyze_program(program)
    table = format_table(
        rows,
        columns=["rejection path", "verdict", "ms/report", "speedup"],
        title="E16: rejecting an infeasible report (%s, %d loop bounds, "
              "%d rounds each)"
              % (WORKLOAD, len(analysis.policy.loop_bounds), ROUNDS),
    )
    report_writer("e16_policy_screen", table,
                  metrics={"prescreen_speedup": speedup})

    assert speedup >= 5.0, (
        "policy pre-screen rejection should be >=5x cheaper than golden "
        "replay, measured %.1fx" % speedup
    )
