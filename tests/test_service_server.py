"""The attestation server must serve many provers and fail closed on abuse.

Two families of pins:

* **Protocol fuzz, fail-closed** (the satellite requirement): truncated
  frames, oversized length prefixes, unknown frame types, malformed
  reports, wrong scheme tags and mid-stream disconnects must each tear
  down at most the offending connection -- the server keeps serving and
  never crashes.
* **Service behaviour**: version negotiation, lazy program registration,
  challenge withdrawal on disconnect, batched sessions, the shared
  measurement database (warm verification is lookup-only) and the
  trace-store-backed reference path.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.attestation.framing import (
    FrameType,
    hello_payload,
    read_frame,
    write_frame,
)
from repro.attestation.prover import Prover
from repro.attestation.protocol import AttestationReport
from repro.attestation.verifier import Verifier
from repro.service.client import (
    AttestationClient,
    RemoteAttestationError,
    SimulatedProver,
)
from repro.service.database import MeasurementDatabase
from repro.service.loadgen import FleetLoadSpec, drive_fleet_load
from repro.service.server import AttestationServer
from repro.service.tracestore import (
    TraceStore,
    benign_capture,
    execution_signature,
)
from repro.service.worker import execute_capture_job
from repro.workloads import get_workload

WORKLOAD = "figure4_loop"


def serve(coro_factory, **server_kwargs):
    """Run ``coro_factory(server)`` against a fresh started server."""
    async def go():
        server = AttestationServer(**server_kwargs)
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()
    return asyncio.run(go())


async def raw_connection(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def handshake(reader, writer, device_id="prover-0", versions=(1,)):
    await write_frame(writer, FrameType.HELLO,
                      hello_payload(versions, device_id))
    frame = await read_frame(reader)
    assert frame is not None
    return frame


async def connected_client(server, device_id="prover-0", trace_store=None):
    client = AttestationClient(
        "127.0.0.1", server.port, device_id,
        SimulatedProver(device_id=device_id, trace_store=trace_store))
    await client.connect()
    return client


class TestHandshake:
    def test_hello_negotiates_version_and_lists_schemes(self):
        async def scenario(server):
            client = await connected_client(server)
            info = client.server_info
            await client.close()
            return info
        info = serve(scenario)
        assert info["version"] == 1
        assert info["schemes"] == ["cflat", "lofat", "static"]

    def test_version_mismatch_is_fatal(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            frame_type, payload = await handshake(reader, writer, versions=(99,))
            assert frame_type == FrameType.ERROR
            document = json.loads(payload)
            writer.close()
            return document, server.stats.protocol_errors
        document, errors = serve(scenario)
        assert document["code"] == "version_mismatch"
        assert document["fatal"] is True
        assert errors == 1

    def test_first_frame_must_be_hello(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            await write_frame(writer, FrameType.STATS_REQUEST)
            frame_type, payload = await read_frame(reader)
            writer.close()
            return frame_type, json.loads(payload)
        frame_type, document = serve(scenario)
        assert frame_type == FrameType.ERROR
        assert document["code"] == "hello_expected"

    def test_malformed_hello_json_is_fatal(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            await write_frame(writer, FrameType.HELLO, b"not json")
            frame_type, payload = await read_frame(reader)
            writer.close()
            return json.loads(payload)
        assert serve(scenario)["code"] == "malformed_hello"


class TestFailClosed:
    """The satellite fuzz matrix: every abuse path must fail closed."""

    def test_oversized_length_prefix(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            await handshake(reader, writer)
            writer.write(bytes([FrameType.REPORT])
                         + (1 << 31).to_bytes(4, "little"))
            await writer.drain()
            frame_type, payload = await read_frame(reader)
            assert frame_type == FrameType.ERROR
            assert json.loads(payload)["code"] == "frame_too_large"
            assert await read_frame(reader) is None  # connection torn down
            # ... and the server still serves new connections.
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted, server.stats.protocol_errors
        accepted, errors = serve(scenario)
        assert accepted and errors == 1

    def test_unknown_frame_type_byte(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            await handshake(reader, writer)
            writer.write(b"\xee" + (0).to_bytes(4, "little"))
            await writer.drain()
            frame_type, payload = await read_frame(reader)
            writer.close()
            return json.loads(payload)["code"]
        assert serve(scenario) == "unknown_frame_type"

    def test_mid_stream_disconnect_leaves_server_alive(self):
        async def scenario(server):
            reader, writer = await raw_connection(server)
            await handshake(reader, writer)
            # Half a frame header, then vanish.
            writer.write(bytes([FrameType.REPORT, 0x10]))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # Give the handler a tick to observe the EOF.
            await asyncio.sleep(0.05)
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted, server.stats.active_connections
        accepted, active = serve(scenario)
        assert accepted
        assert active == 0

    def test_malformed_report_payload_is_fatal(self):
        async def scenario(server):
            client = await connected_client(server)
            await client.request_challenge(WORKLOAD)
            await write_frame(client._writer, FrameType.REPORT,
                              b"\x01garbage-report-bytes")
            with pytest.raises(RemoteAttestationError) as caught:
                await client._expect(FrameType.VERDICT)
            return caught.value.code, caught.value.fatal
        code, fatal = serve(scenario)
        assert code == "malformed_report" and fatal

    def test_wrong_scheme_tag_rejected_as_scheme_mismatch(self):
        async def scenario(server):
            client = await connected_client(server)
            challenge = await client.request_challenge(WORKLOAD, None, "lofat")
            report = client.prover.respond(challenge)
            retagged = AttestationReport(
                program_id=report.program_id,
                measurement=report.measurement,
                metadata=report.metadata,
                nonce=report.nonce,
                signature=report.signature,
                exit_code=report.exit_code,
                output=report.output,
                scheme="cflat",
            )
            verdict = await client.submit_report(retagged)
            await client.close()
            return verdict
        verdict = serve(scenario)
        assert not verdict.accepted
        assert verdict.reason == "scheme_mismatch"

    def test_unknown_scheme_in_challenge_request_is_nonfatal(self):
        async def scenario(server):
            client = await connected_client(server)
            with pytest.raises(RemoteAttestationError) as caught:
                await client.request_challenge(WORKLOAD, None, "no-such-scheme")
            assert caught.value.code == "unknown_scheme"
            assert not caught.value.fatal
            # The session survives the rejected request.
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted
        assert serve(scenario)

    def test_unknown_program_is_nonfatal(self):
        async def scenario(server):
            client = await connected_client(server)
            with pytest.raises(RemoteAttestationError) as caught:
                await client.request_challenge("no-such-workload")
            assert caught.value.code == "unknown_program"
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted
        assert serve(scenario)

    def test_shutdown_refused_unless_enabled(self):
        async def scenario(server):
            client = await connected_client(server)
            with pytest.raises(RemoteAttestationError) as caught:
                await client.shutdown_server()
            return caught.value.code
        assert serve(scenario, allow_shutdown=False) == "shutdown_refused"

    def test_random_blob_connections_never_kill_the_server(self):
        """Seeded byte-soup fuzz against the raw socket."""
        import random

        rng = random.Random(0x10FA7)
        blobs = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
                 for _ in range(24)]

        async def scenario(server):
            for blob in blobs:
                reader, writer = await raw_connection(server)
                writer.write(blob)
                await writer.drain()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            await asyncio.sleep(0.05)
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted
        assert serve(scenario)


class TestVerification:
    def test_all_three_schemes_accept_benign_reports(self):
        async def scenario(server):
            client = await connected_client(server)
            verdicts = {}
            for scheme in ("lofat", "cflat", "static"):
                _, verdict = await client.attest_round(WORKLOAD, None, scheme)
                verdicts[scheme] = verdict
            await client.close()
            return verdicts
        verdicts = serve(scenario)
        assert all(v.accepted for v in verdicts.values())
        assert {v.reason for v in verdicts.values()} == {"accepted"}

    def test_warm_database_makes_repeat_verification_lookup_only(self):
        async def scenario(server):
            client = await connected_client(server)
            await client.attest_round(WORKLOAD)
            misses_after_first = server.database.misses
            opened_after_first = server.pool.sessions_opened
            for _ in range(3):
                _, verdict = await client.attest_round(WORKLOAD)
                assert verdict.accepted
            await client.close()
            return (misses_after_first, server.database.misses,
                    opened_after_first, server.pool.sessions_opened)
        first_m, later_m, first_s, later_s = serve(scenario)
        assert later_m == first_m  # no further misses
        assert later_s == first_s  # no further reference sessions

    def test_trace_store_backed_reference_replays_instead_of_simulating(
            self, tmp_path):
        store = TraceStore(directory=str(tmp_path))
        workload = get_workload(WORKLOAD)
        signature = execution_signature(WORKLOAD, tuple(workload.inputs))
        response = execute_capture_job(
            (signature, WORKLOAD, tuple(workload.inputs), None))
        store.put_bytes(
            signature, response.trace_bytes, response.exit_code,
            response.output, response.instructions, response.cycles,
            response.replayable)

        async def scenario(server):
            client = await connected_client(server, trace_store=store)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict, server.database.stats()
        verdict, stats = serve(scenario, trace_store=store)
        assert verdict.accepted
        # The reference landed under both keyspaces: input-keyed and
        # trace-digest-keyed.
        assert stats["entries"] == 1
        assert stats["trace_entries"] == 1

    def test_disconnect_withdraws_outstanding_challenges(self):
        async def scenario(server):
            client = await connected_client(server)
            challenge = await client.request_challenge(WORKLOAD)
            report = client.prover.respond(challenge)
            await client.close()  # disconnect with the challenge unanswered
            await asyncio.sleep(0.05)
            assert server.verifier.outstanding_challenge(challenge.nonce) is None
            # Answering the withdrawn nonce later must be rejected as stale.
            client = await connected_client(server)
            verdict = await client.submit_report(report)
            await client.close()
            return verdict
        verdict = serve(scenario)
        assert not verdict.accepted
        assert verdict.reason == "nonce_reused"

    def test_rejected_report_keeps_the_challenge_withdrawable(self):
        """A rejection that does not consume the nonce (wrong scheme tag)
        must leave the challenge outstanding, and disconnecting must then
        withdraw it -- the nonce can never verify later."""
        from repro.attestation.protocol import AttestationReport

        async def scenario(server):
            client = await connected_client(server)
            challenge = await client.request_challenge(WORKLOAD, None, "lofat")
            report = client.prover.respond(challenge)
            retagged = AttestationReport(
                program_id=report.program_id, measurement=report.measurement,
                metadata=report.metadata, nonce=report.nonce,
                signature=report.signature, scheme="cflat",
            )
            verdict = await client.submit_report(retagged)
            assert verdict.reason == "scheme_mismatch"
            # The nonce was not consumed: still outstanding on the server.
            assert server.verifier.outstanding_challenge(
                challenge.nonce) is not None
            await client.close()
            await asyncio.sleep(0.05)
            # ... and withdrawn at disconnect.
            assert server.verifier.outstanding_challenge(
                challenge.nonce) is None
            client = await connected_client(server)
            late = await client.submit_report(report)
            await client.close()
            return late
        late = serve(scenario)
        assert not late.accepted
        assert late.reason == "nonce_reused"

    def test_internal_verify_failure_fails_closed_per_connection(self):
        """An internal error during verification (corrupt store, I/O) must
        answer an ERROR frame and drop only that connection."""
        async def scenario(server):
            async def exploding(scheme, program, inputs):
                raise RuntimeError("simulated corrupt trace blob")

            original = server._expected_measurement
            server._expected_measurement = exploding
            client = await connected_client(server)
            challenge = await client.request_challenge(WORKLOAD)
            report = client.prover.respond(challenge)
            await write_frame(client._writer, FrameType.REPORT,
                              report.to_bytes())
            with pytest.raises(RemoteAttestationError) as caught:
                await client._expect(FrameType.VERDICT)
            assert caught.value.code == "internal_error"
            assert caught.value.fatal
            server._expected_measurement = original
            # The server survives and serves the next connection.
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict.accepted, server.stats.protocol_errors
        accepted, errors = serve(scenario)
        assert accepted and errors == 1

    def test_unsigned_reports_cannot_drive_reference_computation(self):
        """Reports with garbage signatures must be rejected without costing
        a reference simulation or a database entry."""
        from repro.attestation.protocol import AttestationReport

        async def scenario(server):
            client = await connected_client(server)
            for index in range(5):
                challenge = await client.request_challenge(
                    WORKLOAD, [index], "lofat")
                forged = AttestationReport(
                    program_id=challenge.program_id,
                    measurement=b"\x00" * 64,
                    metadata=client.prover.respond(challenge).metadata,
                    nonce=challenge.nonce,
                    signature=b"\x00" * 32,
                    scheme="lofat",
                )
                verdict = await client.submit_report(forged)
                assert verdict.reason == "bad_signature"
            await client.close()
            return server.pool.sessions_opened, len(server.database)
        sessions, entries = serve(scenario)
        assert sessions == 0
        assert entries == 0

    def test_batched_session_preserves_order_and_verdicts(self):
        async def scenario(server):
            client = await connected_client(server)
            rounds = [(WORKLOAD, None, "lofat"),
                      ("syringe_pump", None, "cflat"),
                      (WORKLOAD, None, "static")] * 2
            results = await client.attest_batch(rounds)
            await client.close()
            return rounds, results
        rounds, results = serve(scenario)
        assert len(results) == len(rounds)
        for (_, _, scheme), (report, verdict) in zip(rounds, results):
            assert report.scheme == scheme
            assert verdict.accepted

    def test_concurrent_provers_share_one_server(self):
        async def scenario(server):
            load = await drive_fleet_load(
                "127.0.0.1", server.port, FleetLoadSpec(
                    devices=6, connections=6, reports=24, session_rounds=4,
                    schemes=("lofat", "cflat", "static"),
                    workloads=(WORKLOAD,)))
            return load, server.stats.as_dict()
        load, stats = serve(scenario)
        assert load.ok
        assert load.reports == 24
        assert load.executed == load.reports  # no trace store: all live
        assert stats["accepted"] >= 24
        assert stats["protocol_errors"] == 0
        assert stats["active_connections"] == 0

    def test_batched_fleet_load_replays_and_rejects_duplicates(self, tmp_path):
        """Rounds go out in chunks of ``batch``; any round of a chunk can be
        re-submitted as a duplicate, and every one must be refused."""
        store = TraceStore(directory=str(tmp_path))
        inputs = tuple(get_workload(WORKLOAD).inputs)
        signature = execution_signature(WORKLOAD, inputs)
        response = execute_capture_job((signature, WORKLOAD, inputs, None))
        store.put_bytes(
            signature, response.trace_bytes, response.exit_code,
            response.output, response.instructions, response.cycles,
            response.replayable)

        async def scenario(server):
            return await drive_fleet_load(
                "127.0.0.1", server.port, FleetLoadSpec(
                    devices=4, connections=2, reports=18, session_rounds=6,
                    batch=3, duplicate_fraction=0.5,
                    schemes=("lofat", "cflat"), workloads=(WORKLOAD,)),
                trace_dir=str(tmp_path))
        load = serve(scenario)
        assert load.ok, load.rejections
        assert load.reports == 18
        assert load.duplicate_injected > 0
        assert load.duplicate_rejected == load.duplicate_injected
        assert (load.replayed, load.executed) == (18, 0)

    def test_one_connection_attests_every_scheme(self):
        """A connection walks the whole schemes x workloads product, across
        sessions, instead of skipping every other pair."""
        async def scenario(server):
            return await drive_fleet_load(
                "127.0.0.1", server.port, FleetLoadSpec(
                    devices=1, connections=1, reports=8, session_rounds=3,
                    schemes=("lofat", "cflat"), workloads=(WORKLOAD,)))
        load = serve(scenario)
        assert load.ok, load.rejections
        assert load.by_scheme == {"lofat": 4, "cflat": 4}

    def test_stats_frame_reports_database_and_pool(self):
        async def scenario(server):
            client = await connected_client(server)
            await client.attest_round(WORKLOAD)
            stats = await client.server_stats()
            await client.close()
            return stats
        stats = serve(scenario)
        assert stats["reports_verified"] == 1
        assert "database" in stats and "session_pool" in stats


class TestReferenceParity:
    """The runner's ``lookup_or_compute`` and the server's
    ``_expected_measurement`` run one reference sequence: the same
    ``(A, L)`` and the same hit/miss accounting, request by request."""

    #: (inputs, benign capture stored?) in request order: cold without a
    #: capture; cold with a replayable capture; a primary miss served from
    #: the trace keyspace (figure4_loop never reads the extra input, so the
    #: trace digest is that of (5,)); primary warm.
    REQUESTS = [((4,), False), ((5,), True), ((5, 7), True), ((5,), True)]
    #: Cumulative (hits, misses, entries, trace entries) after each request.
    EXPECTED = [(0, 1, 1, 0), (0, 2, 2, 1), (1, 2, 3, 1), (2, 2, 3, 1)]

    @pytest.fixture
    def store(self):
        store = TraceStore()
        for inputs, captured in self.REQUESTS:
            if captured:
                signature = execution_signature(WORKLOAD, inputs)
                response = execute_capture_job(
                    (signature, WORKLOAD, inputs, None))
                assert response.replayable
                store.put_bytes(
                    signature, response.trace_bytes, response.exit_code,
                    response.output, response.instructions, response.cycles,
                    response.replayable)
        return store

    @staticmethod
    def _step(entry, database):
        stats = database.stats()
        return (tuple(entry), (stats["hits"], stats["misses"],
                               stats["entries"], stats["trace_entries"]))

    def test_runner_and_server_resolve_references_identically(self, store):
        database = MeasurementDatabase()
        program = get_workload(WORKLOAD).build()
        runner_steps = []
        for inputs, _ in self.REQUESTS:
            measurement, metadata, _ = database.lookup_or_compute(
                program, inputs,
                capture=benign_capture(store, WORKLOAD, inputs))
            runner_steps.append(self._step((measurement, metadata), database))

        server = AttestationServer(trace_store=store)

        async def requests():
            steps = []
            for inputs, _ in self.REQUESTS:
                entry = await server._expected_measurement(
                    "lofat", WORKLOAD, inputs)
                steps.append(self._step(entry, server.database))
            return steps
        server_steps = asyncio.run(requests())

        assert server_steps == runner_steps
        assert [counts for _, counts in runner_steps] == self.EXPECTED


class TestVerifierChallengeWithdrawal:
    """The Verifier additions the server builds on."""

    def test_discard_challenge_consumes_the_nonce(self):
        workload = get_workload(WORKLOAD)
        program = workload.build()
        prover = Prover({WORKLOAD: program})
        verifier = Verifier()
        verifier.register_program(WORKLOAD, program)
        verifier.register_device_key(
            "prover-0", prover.keystore.export_for_verifier())
        challenge = verifier.challenge(WORKLOAD, workload.inputs)
        report = prover.attest(challenge)
        assert verifier.outstanding_challenge(challenge.nonce) is challenge
        assert verifier.discard_challenge(challenge.nonce)
        assert verifier.outstanding_challenge(challenge.nonce) is None
        assert not verifier.discard_challenge(challenge.nonce)
        verdict = verifier.verify(report)
        assert not verdict.accepted
        assert verdict.reason.value == "nonce_reused"
