"""The remote-attestation client: simulated provers over the wire.

The other half of :mod:`repro.service.server`: an asyncio client that
connects to the verifier daemon, performs the HELLO/HELLO_ACK version
negotiation, and answers challenges as a simulated embedded prover.  Report
production reuses the campaign worker machinery
(:mod:`repro.service.worker`), so a client with a :class:`TraceStore` of
captured executions *replays* stored traces instead of re-simulating --
the capture-once / verify-many pipeline stretched over a socket -- and
falls back to a live CPU execution when no capture exists.

Two interaction shapes:

* :meth:`AttestationClient.attest_round` -- one challenge-request /
  challenge / report / verdict exchange (two round trips).
* :meth:`AttestationClient.attest_batch` -- a *batched verification
  session*: all challenge requests of the batch are pipelined onto the
  wire before the first challenge is read, and all reports before the
  first verdict, amortising the per-round-trip latency.  Frame order is
  preserved both ways, so verdict *k* answers report *k*.

The load generator that drives many of these clients at once -- device
churn, batching, pacing, injected stale and duplicate reports -- is
:mod:`repro.service.loadgen` (``repro fleet-load``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attestation.framing import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSIONS,
    FrameType,
    FramingError,
    hello_payload,
    read_frame,
    write_frame,
)
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.cpu.core import CpuConfig
from repro.service.campaign import CampaignJob
from repro.service.tracestore import TraceStore, benign_capture
from repro.service.worker import execute_attest_job, execute_prover_job
from repro.workloads import get_workload


class RemoteAttestationError(RuntimeError):
    """Raised when the server reports a protocol error or misbehaves."""

    def __init__(self, code: str, detail: str = "", fatal: bool = False):
        super().__init__("%s: %s" % (code, detail) if detail else code)
        self.code = code
        self.detail = detail
        self.fatal = fatal


@dataclass
class RemoteVerdict:
    """The verifier's wire-delivered verdict on one report."""

    accepted: bool
    reason: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.accepted


class SimulatedProver:
    """Produces signed reports for challenges, replaying captures when able.

    The prover-side twin of the campaign worker: a challenge for an
    execution whose scheme-independent signature is in the trace store is
    answered by replaying the stored control-flow trace through the
    challenged scheme's session (with the worker's per-process replay cache
    deduping repeat (scheme, trace, config) measurements); anything else
    runs live on the CPU model.  Attack hooks are deliberately absent --
    this client models benign devices; attacked runs come from the campaign
    pipeline.
    """

    def __init__(
        self,
        device_id: str = "prover-0",
        trace_store: Optional[TraceStore] = None,
        cpu_config: Optional[CpuConfig] = None,
    ) -> None:
        self.device_id = device_id
        self.trace_store = trace_store
        self.cpu_config = cpu_config or CpuConfig()
        self.replayed = 0
        self.executed = 0
        #: (program_id, inputs, scheme) -> (job, capture): the parts of a
        #: response that do not depend on the nonce, memoised so repeated
        #: challenges cost a dict hit instead of re-hashing the execution
        #: signature and re-consulting the store every round.
        self._plans: Dict[Tuple[str, Tuple[int, ...], str], tuple] = {}

    def _plan(self, challenge: AttestationChallenge) -> tuple:
        key = (challenge.program_id, tuple(challenge.inputs), challenge.scheme)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        get_workload(challenge.program_id)  # fail fast on unknown programs
        job = CampaignJob(
            job_id="remote",
            workload=challenge.program_id,
            inputs=tuple(challenge.inputs),
            scheme=challenge.scheme,
        )
        capture = benign_capture(
            self.trace_store, challenge.program_id, challenge.inputs,
            self.cpu_config)
        plan = (job, capture)
        self._plans[key] = plan
        return plan

    def respond(self, challenge: AttestationChallenge) -> AttestationReport:
        """Produce the signed report answering ``challenge``."""
        job, capture = self._plan(challenge)
        if capture is not None and capture.replayable:
            response = execute_attest_job(
                (job, challenge.nonce, capture),
                device_id=self.device_id, cpu_config=self.cpu_config,
            )
            self.replayed += 1
        else:
            response = execute_prover_job(
                (job, challenge.nonce),
                device_id=self.device_id, cpu_config=self.cpu_config,
            )
            self.executed += 1
        if response.report is None:
            raise ValueError(response.failure)
        return response.report


class AttestationClient:
    """One prover-side connection to the attestation server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4711,
        device_id: str = "prover-0",
        prover: Optional[SimulatedProver] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        pace_seconds: float = 0.0,
    ) -> None:
        self.host = host
        self.port = port
        self.device_id = device_id
        self.prover = prover or SimulatedProver(device_id=device_id)
        self.max_frame_bytes = max_frame_bytes
        #: Simulated device-side latency charged per attestation round
        #: (program execution on the remote core plus its link), slept --
        #: not burned -- before the report goes out.  A replaying prover
        #: otherwise answers in microseconds, thousands of times faster
        #: than the embedded device it stands in for; pacing restores the
        #: closed-loop shape real fleets have, where a verifier's
        #: throughput comes from serving many in-flight devices, not from
        #: one implausibly fast one.  Zero (the default) disables pacing.
        self.pace_seconds = pace_seconds
        self.server_info: dict = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # ------------------------------------------------------------ lifecycle
    async def connect(self, versions: Sequence[int] = PROTOCOL_VERSIONS) -> dict:
        """Open the connection and negotiate the protocol version."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        await write_frame(
            self._writer, FrameType.HELLO,
            hello_payload(versions, self.device_id), self.max_frame_bytes)
        frame_type, payload = await self._expect(FrameType.HELLO_ACK)
        self.server_info = json.loads(payload.decode("utf-8"))
        return self.server_info

    async def close(self, send_bye: bool = True) -> None:
        """End the session (politely with BYE, unless the pipe broke)."""
        if self._writer is None:
            return
        try:
            if send_bye:
                await write_frame(self._writer, FrameType.BYE)
                await read_frame(self._reader, self.max_frame_bytes)
        except (FramingError, ConnectionError, OSError):
            pass
        finally:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def shutdown_server(self) -> None:
        """Ask the server to stop (requires server-side ``allow_shutdown``)."""
        await write_frame(self._writer, FrameType.SHUTDOWN)
        await self._expect(FrameType.BYE)
        await self.close(send_bye=False)

    # -------------------------------------------------------------- plumbing
    async def _expect(self, expected: FrameType) -> Tuple[FrameType, bytes]:
        """Read one frame, surfacing server ERROR frames as exceptions."""
        frame = await read_frame(self._reader, self.max_frame_bytes)
        if frame is None:
            raise RemoteAttestationError(
                "connection_closed", "server closed the connection", fatal=True)
        frame_type, payload = frame
        if frame_type == FrameType.ERROR:
            document = json.loads(payload.decode("utf-8"))
            raise RemoteAttestationError(
                str(document.get("code", "error")),
                str(document.get("detail", "")),
                bool(document.get("fatal", False)),
            )
        if frame_type != expected:
            raise RemoteAttestationError(
                "unexpected_frame",
                "expected %s, got %s" % (expected.name, frame_type.name),
                fatal=True)
        return frame_type, payload

    @staticmethod
    def _default_inputs(program_id: str) -> Tuple[int, ...]:
        """The workload's default input vector, best effort.

        The server is authoritative about which programs exist; a name this
        client's registry does not know still goes onto the wire (with an
        empty input vector) so the server's unknown-program handling is
        exercised rather than short-circuited locally.
        """
        try:
            return tuple(get_workload(program_id).inputs)
        except KeyError:
            return ()

    @staticmethod
    def _challenge_request(scheme, program_id, inputs) -> bytes:
        return json.dumps({
            "scheme": scheme,
            "program_id": program_id,
            "inputs": [int(v) for v in inputs],
        }).encode("utf-8")

    @staticmethod
    def _parse_verdict(payload: bytes) -> RemoteVerdict:
        document = json.loads(payload.decode("utf-8"))
        return RemoteVerdict(
            accepted=bool(document["accepted"]),
            reason=str(document["reason"]),
            detail=str(document.get("detail", "")),
        )

    # -------------------------------------------------------------- protocol
    async def request_challenge(
        self, program_id: str, inputs: Optional[Sequence[int]] = None,
        scheme: str = "lofat",
    ) -> AttestationChallenge:
        """One challenge request / challenge exchange."""
        if inputs is None:
            inputs = self._default_inputs(program_id)
        await write_frame(
            self._writer, FrameType.CHALLENGE_REQUEST,
            self._challenge_request(scheme, program_id, inputs),
            self.max_frame_bytes)
        _, payload = await self._expect(FrameType.CHALLENGE)
        return AttestationChallenge.from_bytes(payload)

    async def submit_report(self, report: AttestationReport) -> RemoteVerdict:
        """Send one report and read its verdict."""
        await write_frame(
            self._writer, FrameType.REPORT, report.to_bytes(),
            self.max_frame_bytes)
        _, payload = await self._expect(FrameType.VERDICT)
        return self._parse_verdict(payload)

    async def attest_round(
        self, program_id: str, inputs: Optional[Sequence[int]] = None,
        scheme: str = "lofat",
    ) -> Tuple[AttestationReport, RemoteVerdict]:
        """One full attestation: challenge, local measurement, verdict."""
        challenge = await self.request_challenge(program_id, inputs, scheme)
        report = self.prover.respond(challenge)
        if self.pace_seconds > 0:
            await asyncio.sleep(self.pace_seconds)
        verdict = await self.submit_report(report)
        return report, verdict

    async def attest_batch(
        self, rounds: Sequence[Tuple[str, Optional[Sequence[int]], str]],
    ) -> List[Tuple[AttestationReport, RemoteVerdict]]:
        """A batched verification session over ``rounds``.

        ``rounds`` is a sequence of ``(program_id, inputs, scheme)`` tuples
        (``inputs=None`` uses the workload's defaults).  All challenge
        requests go onto the wire before the first challenge is read, and
        all reports before the first verdict -- one latency charge per
        phase instead of one per round.
        """
        resolved = [
            (program_id,
             list(self._default_inputs(program_id)) if inputs is None
             else list(inputs),
             scheme)
            for program_id, inputs, scheme in rounds
        ]
        for program_id, inputs, scheme in resolved:
            await write_frame(
                self._writer, FrameType.CHALLENGE_REQUEST,
                self._challenge_request(scheme, program_id, inputs),
                self.max_frame_bytes)
        challenges = []
        for _ in resolved:
            _, payload = await self._expect(FrameType.CHALLENGE)
            challenges.append(AttestationChallenge.from_bytes(payload))
        reports = [self.prover.respond(challenge) for challenge in challenges]
        if self.pace_seconds > 0:
            # The device executes its challenges serially.
            await asyncio.sleep(self.pace_seconds * len(reports))
        for report in reports:
            await write_frame(
                self._writer, FrameType.REPORT, report.to_bytes(),
                self.max_frame_bytes)
        results = []
        for report in reports:
            _, payload = await self._expect(FrameType.VERDICT)
            results.append((report, self._parse_verdict(payload)))
        return results

    async def server_stats(self) -> dict:
        """Fetch the server's operational counters (STATS frame)."""
        await write_frame(self._writer, FrameType.STATS_REQUEST)
        _, payload = await self._expect(FrameType.STATS)
        return json.loads(payload.decode("utf-8"))
