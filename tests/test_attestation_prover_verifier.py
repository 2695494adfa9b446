"""End-to-end protocol tests: prover and verifier."""

import pytest

from repro.attestation import Prover, Verifier
from repro.schemes import VerdictReason
from repro.lofat.metadata import LoopMetadata
from repro.service.database import MeasurementDatabase
from repro.workloads import get_workload


@pytest.fixture
def protocol_setup():
    """A prover provisioned with two programs, plus a matching verifier."""
    pump = get_workload("syringe_pump")
    fig4 = get_workload("figure4_loop")
    programs = {pump.name: pump.build(), fig4.name: fig4.build()}
    prover = Prover(programs, device_id="device-7")
    verifier = Verifier()
    for name, program in programs.items():
        verifier.register_program(name, program)
    verifier.register_device_key("device-7", prover.keystore.export_for_verifier())
    return pump, fig4, programs, prover, verifier


class TestHappyPath:
    def test_benign_report_accepted(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        verdict = verifier.verify(report, device_id="device-7")
        assert verdict.accepted
        assert verdict.reason is VerdictReason.ACCEPTED

    def test_report_echoes_program_output(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        assert report.output == pump.expected_output

    def test_database_mode(self, protocol_setup):
        _, fig4, programs, prover, verifier = protocol_setup
        measurement, metadata, _ = MeasurementDatabase().lookup_or_compute(
            programs[fig4.name], tuple(fig4.inputs))
        challenge = verifier.challenge(fig4.name, fig4.inputs)
        report = prover.attest(challenge)
        assert verifier.verify(report, device_id="device-7",
                               expected=(measurement, metadata)).accepted

    def test_supplied_reference_replaces_the_golden_replay(
            self, protocol_setup):
        """A caller's reference is what the report is judged against: a
        reference for other inputs rejects a benign report (figure 4's
        paths do not depend on the input, its loop counts do)."""
        _, fig4, programs, prover, verifier = protocol_setup
        measurement, metadata, _ = MeasurementDatabase().lookup_or_compute(
            programs[fig4.name], (9,))
        challenge = verifier.challenge(fig4.name, fig4.inputs)
        report = prover.attest(challenge)
        verdict = verifier.verify(report, device_id="device-7",
                                  expected=(measurement, metadata))
        assert verdict.reason is VerdictReason.METADATA_MISMATCH

    def test_screen_accepts_benign(self, protocol_setup):
        _, fig4, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(fig4.name, fig4.inputs)
        report = prover.attest(challenge)
        verdict, screened = verifier.screen(report, device_id="device-7")
        assert verdict.accepted and screened is challenge

    def test_different_inputs_give_different_measurements(self, protocol_setup):
        _, fig4, _, prover, verifier = protocol_setup
        reports = []
        for iterations in (3, 5):
            challenge = verifier.challenge(fig4.name, [iterations])
            reports.append(prover.attest(challenge))
        assert reports[0].payload != reports[1].payload

    def test_prover_run_info_populated(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        prover.attest(challenge)
        assert prover.last_run is not None
        assert prover.last_run.instructions > 0
        assert prover.last_run.engine_stats["processor_stall_cycles"] == 0


class TestRejections:
    def test_unknown_program(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        report.program_id = "unknown"
        assert verifier.verify(report).reason is VerdictReason.UNKNOWN_PROGRAM

    def test_unknown_nonce(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        report.nonce = b"\x00" * 16
        assert verifier.verify(report).reason is VerdictReason.UNKNOWN_NONCE

    def test_replayed_report_rejected(self, protocol_setup):
        """Freshness: the same signed report cannot be presented twice."""
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        assert verifier.verify(report, device_id="device-7").accepted
        second = verifier.verify(report, device_id="device-7")
        assert not second.accepted
        assert second.reason is VerdictReason.NONCE_REUSED

    def test_bad_signature_rejected(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        report.signature = bytes(32)
        assert verifier.verify(report).reason is VerdictReason.BAD_SIGNATURE

    def test_unknown_device_key_rejected(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        assert verifier.verify(report, device_id="other-device").reason is (
            VerdictReason.BAD_SIGNATURE)

    def test_tampered_measurement_rejected(self, protocol_setup):
        """Changing A breaks the signature; re-signing is impossible without sk."""
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        report.measurement = bytes(64)
        assert verifier.verify(report).reason is VerdictReason.BAD_SIGNATURE

    def test_stripped_metadata_rejected(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        report = prover.attest(challenge)
        report.metadata = LoopMetadata()
        assert not verifier.verify(report).accepted

    def test_report_for_wrong_input_rejected(self, protocol_setup):
        """The prover answers an old challenge's execution for a new nonce."""
        _, fig4, _, prover, verifier = protocol_setup
        challenge_a = verifier.challenge(fig4.name, [3])
        report_a = prover.attest(challenge_a)
        challenge_b = verifier.challenge(fig4.name, [5])
        report_b = prover.attest(challenge_b)
        # Swap the measurement content of report_b with report_a's execution:
        # the signature no longer matches, and even with a forged signature
        # the replay check would fail.  Here we check the measurement path.
        report_b.measurement = report_a.measurement
        report_b.metadata = report_a.metadata
        verdict = verifier.verify(report_b)
        assert not verdict.accepted

    def test_challenge_for_unregistered_program_raises(self, protocol_setup):
        *_, verifier = protocol_setup
        with pytest.raises(KeyError):
            verifier.challenge("unknown-program", [])

    def test_prover_rejects_unknown_program(self, protocol_setup):
        pump, _, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(pump.name, pump.inputs)
        object.__setattr__(challenge, "program_id", "missing")
        with pytest.raises(KeyError):
            prover.attest(challenge)


class TestMetadataStructuralChecks:
    def test_fabricated_loop_entry_rejected(self, protocol_setup):
        """Metadata naming a loop at an address with no backward edge fails
        the structural CFG check even before measurement comparison."""
        _, fig4, programs, prover, verifier = protocol_setup
        challenge = verifier.challenge(fig4.name, fig4.inputs)
        report = prover.attest(challenge)
        # Forge the entry of the first loop record to a non-loop address.
        report.metadata.loops[0].entry = programs[fig4.name].entry
        # Re-signing with the device key models a fully compromised prover
        # software stack (the key itself is still hardware-protected, so this
        # is strictly stronger than the real adversary).
        from repro.attestation.crypto import sign_report
        report.signature = sign_report(report.payload, report.nonce, prover.keystore)
        verdict = verifier.verify(report, device_id="device-7")
        assert verdict.reason is VerdictReason.METADATA_CFG_VIOLATION

    def test_inconsistent_iteration_counts_rejected(self, protocol_setup):
        _, fig4, _, prover, verifier = protocol_setup
        challenge = verifier.challenge(fig4.name, fig4.inputs)
        report = prover.attest(challenge)
        report.metadata.loops[0].iterations += 5
        from repro.attestation.crypto import sign_report
        report.signature = sign_report(report.payload, report.nonce, prover.keystore)
        verdict = verifier.verify(report, device_id="device-7")
        assert verdict.reason is VerdictReason.METADATA_CFG_VIOLATION


#: A counted loop with one path, run 300 times: past the 255 a default
#: 8-bit LO-FAT path counter can hold.
COUNTED_300_SOURCE = """
    .text
_start:
    li   a0, 300
    li   t0, 0
loop:
    bge  t0, a0, done
    addi t0, t0, 1
    j    loop
done:
    li   a0, 0
    li   a7, 93
    ecall
"""


class TestSaturatedLoopCounters:
    """Path counters saturate at 2^counter_width_bits - 1, as in hardware."""

    @pytest.fixture
    def counted(self):
        from repro.isa.assembler import assemble

        program = assemble(COUNTED_300_SOURCE)
        prover = Prover({"counted": program}, device_id="device-7")
        verifier = Verifier()
        verifier.register_program("counted", program)
        verifier.register_device_key(
            "device-7", prover.keystore.export_for_verifier())
        return prover, verifier

    def test_benign_saturated_loop_accepted(self, counted):
        prover, verifier = counted
        report = prover.attest(verifier.challenge("counted", []))
        (record,) = list(report.metadata)
        assert record.iterations == 300
        assert max(path.iterations for path in record.paths) == 255
        report = prover.attest(verifier.challenge("counted", []))
        verdict, _ = verifier.screen(report, device_id="device-7")
        assert verdict.accepted, verdict
        report = prover.attest(verifier.challenge("counted", []))
        verdict = verifier.verify(report, device_id="device-7")
        assert verdict.accepted, verdict

    def test_path_sum_above_iterations_still_rejected(self, counted):
        from repro.attestation.crypto import sign_report

        prover, verifier = counted
        report = prover.attest(verifier.challenge("counted", []))
        # A saturated counter excuses a sum below the iteration count,
        # never one above it.
        report.metadata.loops[0].iterations = sum(
            path.iterations for path in report.metadata.loops[0].paths) - 1
        report.signature = sign_report(
            report.payload, report.nonce, prover.keystore)
        verdict, _ = verifier.screen(report, device_id="device-7")
        assert verdict.reason is VerdictReason.METADATA_CFG_VIOLATION
        assert "inconsistent" in verdict.detail

    def test_wider_counters_require_exact_sums(self, counted):
        """A verifier provisioned with 16-bit counters does not read 255 as
        saturated, so an 8-bit prover's short sum is inconsistent to it."""
        prover, verifier = counted
        verifier.configure_scheme("lofat", {"counter_width_bits": 16})
        report = prover.attest(verifier.challenge("counted", []))
        verdict, _ = verifier.screen(report, device_id="device-7")
        assert verdict.reason is VerdictReason.METADATA_CFG_VIOLATION
