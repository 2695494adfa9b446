"""Over-the-wire verification must be indistinguishable from in-process.

The acceptance pin of the server PR: for all three schemes, a report that
travels through the asyncio server (framing, database-mode verification,
session pooling) carries a byte-identical measurement payload ``A || L`` to
the report the in-process protocol produces, and the verdict -- accepted
flag, reason, and its wire serialisation -- is byte-identical too.  Attacked
executions keep their scheme-dependent expectations: rejected under lofat
and cflat, accepted (the paper's motivating gap) under static.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.attacks import get_attack
from repro.attestation.prover import Prover
from repro.attestation.verifier import Verifier
from repro.service.client import AttestationClient, SimulatedProver
from repro.service.database import MeasurementDatabase
from repro.service.server import AttestationServer
from repro.workloads import get_workload

SCHEMES = ("lofat", "cflat", "static")
WORKLOAD = "syringe_pump"


def in_process_protocol(workload_name, scheme, attack=None, inputs=None):
    """One challenge-response round entirely in process."""
    workload = get_workload(workload_name)
    if inputs is None:
        inputs = list(workload.inputs)
    program = workload.build()
    prover = Prover({workload_name: program})
    verifier = Verifier()
    verifier.register_program(workload_name, program)
    verifier.register_device_key(
        "prover-0", prover.keystore.export_for_verifier())
    if attack is not None:
        prover.install_attack(get_attack(attack).prover_hook(program))
    challenge = verifier.challenge(workload_name, inputs, scheme=scheme)
    report = prover.attest(challenge)
    measurement, metadata, _ = MeasurementDatabase().lookup_or_compute(
        program, tuple(inputs), scheme=scheme)
    verdict = verifier.verify(report, expected=(measurement, metadata))
    return report, verdict


def over_the_wire(workload_name, scheme):
    """The same round through the asyncio server; returns (report, frame)."""
    async def go():
        server = AttestationServer()
        await server.start()
        try:
            client = AttestationClient(
                "127.0.0.1", server.port, "prover-0",
                SimulatedProver(device_id="prover-0"))
            await client.connect()
            challenge = await client.request_challenge(
                workload_name, None, scheme)
            report = client.prover.respond(challenge)
            from repro.attestation.framing import FrameType, write_frame
            await write_frame(client._writer, FrameType.REPORT,
                              report.to_bytes())
            _, verdict_payload = await client._expect(FrameType.VERDICT)
            await client.close()
            return report, verdict_payload
        finally:
            await server.stop()
    return asyncio.run(go())


def verdict_wire_document(verdict):
    """The VERDICT frame document an in-process verdict corresponds to."""
    return {
        "accepted": verdict.accepted,
        "reason": verdict.reason.value,
        "detail": verdict.detail,
    }


class TestBenignEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_verdict_and_payload_are_byte_identical(self, scheme):
        local_report, local_verdict = in_process_protocol(WORKLOAD, scheme)
        remote_report, verdict_payload = over_the_wire(WORKLOAD, scheme)

        # The measured path P = (A, L) -- everything the signature covers
        # except the per-session nonce -- must be byte-identical.
        assert remote_report.measurement == local_report.measurement
        assert (remote_report.metadata.to_bytes()
                == local_report.metadata.to_bytes())
        assert remote_report.payload == local_report.payload
        assert remote_report.scheme == local_report.scheme
        assert remote_report.exit_code == local_report.exit_code
        assert remote_report.output == local_report.output

        # The verdict must be byte-identical on the wire: serialising the
        # in-process verdict yields exactly the VERDICT frame payload.
        remote_document = json.loads(verdict_payload.decode("utf-8"))
        assert remote_document == verdict_wire_document(local_verdict)
        assert remote_document["accepted"] is True
        assert remote_document["reason"] == "accepted"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_report_bytes_roundtrip_through_the_frame(self, scheme):
        """What the prover serialises is what the verifier deserialises."""
        from repro.attestation.protocol import AttestationReport

        remote_report, _ = over_the_wire(WORKLOAD, scheme)
        blob = remote_report.to_bytes()
        assert AttestationReport.from_bytes(blob).to_bytes() == blob


class TestFleetEquivalence:
    """A multi-worker fleet is wire-indistinguishable from one server.

    The fleet PR's acceptance pin: whichever worker the dispatcher routes
    the connection to, the VERDICT frame and the report payload are
    byte-identical to what the single-process server produces.
    """

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        from repro.service.fleet import FleetServer

        fleet = FleetServer(
            host="127.0.0.1", port=0, workers=2,
            state_dir=str(tmp_path_factory.mktemp("fleet-state")))
        fleet.start()
        yield fleet
        fleet.stop()

    def over_the_fleet(self, fleet, workload_name, scheme):
        """One round through the fleet front door; returns (report, frame)."""
        async def go():
            client = AttestationClient(
                "127.0.0.1", fleet.port, "prover-0",
                SimulatedProver(device_id="prover-0"))
            await client.connect()
            challenge = await client.request_challenge(
                workload_name, None, scheme)
            report = client.prover.respond(challenge)
            from repro.attestation.framing import FrameType, write_frame
            await write_frame(client._writer, FrameType.REPORT,
                              report.to_bytes())
            _, verdict_payload = await client._expect(FrameType.VERDICT)
            await client.close()
            return report, verdict_payload
        return asyncio.run(go())

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fleet_verdicts_are_byte_identical_to_single_process(
            self, fleet, scheme):
        single_report, single_payload = over_the_wire(WORKLOAD, scheme)
        # Several rounds so the kernel's connection dispatch gets chances
        # to land on both workers; every verdict must match regardless.
        for _ in range(3):
            fleet_report, fleet_payload = self.over_the_fleet(
                fleet, WORKLOAD, scheme)
            assert fleet_payload == single_payload
            assert fleet_report.measurement == single_report.measurement
            assert (fleet_report.metadata.to_bytes()
                    == single_report.metadata.to_bytes())
            assert fleet_report.payload == single_report.payload
            document = json.loads(fleet_payload.decode("utf-8"))
            assert document["accepted"] is True
            assert document["reason"] == "accepted"


class TestAttackedEquivalence:
    """Attacked executions keep their scheme-dependent verdicts remotely."""

    ATTACK = "syringe_overdose"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_attacked_verdicts_match_in_process(self, scheme):
        scenario = get_attack(self.ATTACK)
        program = get_workload(scenario.workload_name).build()

        async def go():
            server = AttestationServer()
            await server.start()
            try:
                prover = SimulatedProver(device_id="prover-0")
                client = AttestationClient(
                    "127.0.0.1", server.port, "prover-0", prover)
                await client.connect()
                challenge = await client.request_challenge(
                    scenario.workload_name, list(scenario.challenge_inputs),
                    scheme)
                # Compromise the device exactly as the in-process run does.
                device = Prover({scenario.workload_name: program})
                device.install_attack(scenario.prover_hook(program))
                report = device.attest(challenge)
                verdict = await client.submit_report(report)
                await client.close()
                return verdict
            finally:
                await server.stop()

        remote_verdict = asyncio.run(go())
        local = in_process_protocol(
            scenario.workload_name, scheme, attack=self.ATTACK,
            inputs=list(scenario.challenge_inputs))[1]
        assert remote_verdict.accepted == local.accepted
        assert remote_verdict.reason == local.reason.value
        if scheme == "static":
            # The paper's motivating gap: static attestation cannot see
            # run-time attacks.
            assert remote_verdict.accepted
        else:
            assert not remote_verdict.accepted
