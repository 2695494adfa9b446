"""Database-mode verification against the digest-keyed measurement store.

The verifier keeps no references of its own: in ``"database"`` mode it
compares a report with the ``(A, serialized L)`` its caller got from
:class:`repro.service.MeasurementDatabase`, which keys every entry by the
program *digest*.  Re-registering a program id with a different binary can
therefore never serve the old binary's reference, and the verifier forgets
what it memoised about the old image.
"""

import pytest

from repro.attestation import Prover, Verifier
from repro.schemes import VerdictReason
from repro.service import MeasurementDatabase
from repro.workloads import get_workload


@pytest.fixture
def setup():
    workload = get_workload("figure4_loop")
    program = workload.build()
    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
    return workload, program, prover, verifier


@pytest.fixture
def firmware_update():
    """A prover still running figure4_loop as ``fw``, and the verifier that
    provisioned ``fw`` with it; bubble_sort is the binary ``fw`` is later
    re-registered with."""
    old = get_workload("figure4_loop")
    old_program = old.build()
    new_program = get_workload("bubble_sort").build()
    prover = Prover({"fw": old_program})
    verifier = Verifier()
    verifier.register_program("fw", old_program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
    return tuple(old.inputs), old_program, new_program, prover, verifier


class TestMeasurementDatabase:
    def test_precompute_matches_prover_report(self, setup):
        workload, program, prover, verifier = setup
        expected_a, expected_l, _ = MeasurementDatabase().lookup_or_compute(
            program, (5,))
        report = prover.attest(verifier.challenge(workload.name, [5]))
        assert report.measurement == expected_a
        assert report.metadata.to_bytes() == expected_l

    def test_database_mode_rejects_other_input(self, setup):
        workload, program, prover, verifier = setup
        database = MeasurementDatabase()
        reference = database.lookup_or_compute(program, (5,))[:2]
        # Attest a different input: no reference entry exists for it, and
        # the other input's reference does not satisfy it.
        report = prover.attest(verifier.challenge(workload.name, [6]))
        assert database.lookup(program, (6,)) is None
        verdict = verifier.verify(report, expected=reference)
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.METADATA_MISMATCH


class TestReregistration:
    @pytest.mark.parametrize("scheme", ["cflat", "static"])
    def test_stale_reference_is_rejected(self, firmware_update, scheme):
        inputs, old_program, new_program, prover, verifier = firmware_update
        database = MeasurementDatabase()
        old_reference = database.lookup_or_compute(
            old_program, inputs, scheme=scheme)[:2]
        report = prover.attest(verifier.challenge("fw", inputs, scheme=scheme))
        assert verifier.verify(report, expected=old_reference).accepted

        verifier.register_program("fw", new_program)
        measurement, metadata, hit = database.lookup_or_compute(
            new_program, inputs, scheme=scheme)
        assert not hit  # the old binary's entry is keyed by its own digest
        report = prover.attest(verifier.challenge("fw", inputs, scheme=scheme))
        verdict = verifier.verify(report, expected=(measurement, metadata))
        assert verdict.reason is VerdictReason.MEASUREMENT_MISMATCH

    def test_structural_memo_does_not_survive_new_binary(self, firmware_update):
        inputs, _, new_program, prover, verifier = firmware_update
        report = prover.attest(verifier.challenge("fw", inputs))
        assert verifier.screen(report)[0].accepted

        verifier.register_program("fw", new_program)
        report = prover.attest(verifier.challenge("fw", inputs))
        verdict, _ = verifier.screen(report)
        # The same L the memo accepted for the old binary is judged afresh
        # against the new CFG, exactly as a cold verifier judges it.
        assert verdict.reason is VerdictReason.METADATA_CFG_VIOLATION

    def test_policy_does_not_survive_new_binary(self, firmware_update):
        _, old_program, new_program, _, verifier = firmware_update
        policy = verifier.install_policy("fw")
        verifier.register_program("fw", old_program)
        assert verifier.installed_policy("fw") is policy

        verifier.register_program("fw", new_program)
        assert verifier.installed_policy("fw") is None
