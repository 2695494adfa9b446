"""The standing attestation verifier service (asyncio TCP).

Everything before this module verifies in-process: the campaign runner owns
both sides of the protocol.  :class:`AttestationServer` splits them the way
the paper deploys them -- a verifier daemon that serves many remote provers
concurrently over the length-prefixed framing of
:mod:`repro.attestation.framing`:

* One shared :class:`repro.attestation.Verifier` holds the nonce space and
  the offline program analyses; programs are registered lazily from the
  workload registry on first challenge.
* One shared :class:`repro.service.database.MeasurementDatabase` serves the
  expected ``(A, L)`` references through the database's one reference
  sequence (lookup, compute on a miss, store).  A warm database (campaign
  runs, the persisted trace-digest keyspace of the capture-once pipeline)
  makes verification O(lookup); cold references are computed once per
  (scheme, program, input, config) through the :class:`SchemeSessionPool`
  and stored.
* Fail-closed by construction: malformed frames, oversized length prefixes,
  unknown frame types and mid-frame disconnects tear the one connection
  down (ERROR frame first when the socket still writes) without touching
  the others; a report whose scheme tag disagrees with its challenge is
  rejected with ``SCHEME_MISMATCH`` by the shared verifier.

Concurrency model: the server is a single asyncio event loop.  All verifier
and database *mutations* happen on the loop; only the pure reference
computation (a CPU replay or a stored-trace replay, no shared-state writes)
is pushed to the executor through the session pool, so slow cold references
never stall the accept loop or warm verifications.  The session pool also
single-flights duplicate in-flight references: N connections racing on the
same cold (scheme, program, input) tuple cost one computation, not N.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.attestation.framing import (
    MAX_FRAME_BYTES,
    FrameType,
    FramingError,
    error_payload,
    negotiate_version,
    read_frame,
    write_frame,
)
from repro.attestation.crypto import SecureKeyStore
from repro.attestation.protocol import AttestationReport
from repro.attestation.verifier import Verifier
from repro.cpu.core import CpuConfig
from repro.lofat.metadata import MetadataLimitError
from repro.schemes import VerdictReason, VerificationResult, get_scheme
from repro.schemes.registry import (
    SCHEME_REGISTRY,
    SchemeNotFoundError,
    scheme_names,
)
from repro.service.database import MeasurementDatabase, compute_reference
from repro.service.fsutil import atomic_write_text
from repro.service.tracestore import TraceStore, benign_capture
from repro.workloads import get_workload

#: Per-connection cap on challenges issued but not yet answered; a client
#: that keeps requesting challenges without reporting is cut off before it
#: can grow the verifier's outstanding-nonce table without bound.
MAX_OUTSTANDING_CHALLENGES = 1024

#: Growth bound on provisioned devices: device ids arrive on the wire, so a
#: hostile client cycling random ids must not grow the key table without
#: bound.  Keys are derived deterministically from the id, so clearing the
#: table wholesale only costs re-derivation on the next HELLO.
MAX_PROVISIONED_DEVICES = 4096


@dataclass
class ServerStats:
    """Operational counters of one server instance (see the STATS frame)."""

    connections: int = 0
    active_connections: int = 0
    frames: int = 0
    challenges_issued: int = 0
    reports_verified: int = 0
    accepted: int = 0
    rejected: int = 0
    protocol_errors: int = 0
    by_scheme: Dict[str, int] = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    def count_report(self, scheme: str, accepted: bool) -> None:
        self.reports_verified += 1
        # The scheme tag comes off the wire: bucket names outside the
        # registry under one key so a hostile client cannot grow this
        # mapping without bound.
        if scheme not in SCHEME_REGISTRY:
            scheme = "<unknown>"
        self.by_scheme[scheme] = self.by_scheme.get(scheme, 0) + 1
        if accepted:
            self.accepted += 1
        else:
            self.rejected += 1

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "active_connections": self.active_connections,
            "frames": self.frames,
            "challenges_issued": self.challenges_issued,
            "reports_verified": self.reports_verified,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "protocol_errors": self.protocol_errors,
            "by_scheme": dict(self.by_scheme),
            "uptime_seconds": time.time() - self.started,
        }


class SchemeSessionPool:
    """Bounded, single-flighted reference computation per scheme.

    A cold verification needs a reference measurement -- a measurement
    session replaying the execution (or hashing the image) under the
    report's scheme.  The pool puts two limits around that work:

    * at most ``limit`` reference sessions per scheme run concurrently
      (each occupies an executor thread and the shared CPU-model caches),
    * identical in-flight references are *single-flighted*: concurrent
      misses on one database key await the first computation instead of
      repeating it.

    Results are returned to the caller, which stores them in the shared
    database on the event loop -- the pool itself never mutates shared
    state off-loop.
    """

    def __init__(self, limit: int = 4) -> None:
        self.limit = max(1, limit)
        self._semaphores: Dict[str, asyncio.Semaphore] = {}
        self._in_flight: Dict[tuple, asyncio.Future] = {}
        self.sessions_opened = 0
        self.single_flight_waits = 0

    def _semaphore(self, scheme: str) -> asyncio.Semaphore:
        semaphore = self._semaphores.get(scheme)
        if semaphore is None:
            semaphore = asyncio.Semaphore(self.limit)
            self._semaphores[scheme] = semaphore
        return semaphore

    async def reference(self, key: tuple, scheme: str, compute):
        """Run ``compute`` (a no-argument callable) for ``key``, pooled.

        ``compute`` is executed on the event loop's default executor under
        the scheme's concurrency slot.  Callers racing on the same key get
        the winner's result (or exception).
        """
        existing = self._in_flight.get(key)
        if existing is not None:
            self.single_flight_waits += 1
            return await asyncio.shield(existing)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._in_flight[key] = future
        try:
            async with self._semaphore(scheme):
                self.sessions_opened += 1
                result = await loop.run_in_executor(None, compute)
        except Exception as error:  # propagate to every waiter, then raise
            if not future.done():
                future.set_exception(error)
                # The retrieval below keeps "never retrieved" warnings away
                # when no one else was waiting.
                future.exception()
            raise
        finally:
            self._in_flight.pop(key, None)
        if not future.done():
            future.set_result(result)
        return result

    def stats(self) -> dict:
        return {
            "limit": self.limit,
            "sessions_opened": self.sessions_opened,
            "single_flight_waits": self.single_flight_waits,
        }


class AttestationServer:
    """An asyncio TCP verifier serving the scheme-tagged wire protocol.

    Parameters:
        host/port: bind address; port 0 picks an ephemeral port (read it
            back from :attr:`port` after :meth:`start`).
        database: shared measurement database (fresh one by default).
        trace_store: optional capture store; when a challenged execution
            has a stored benign capture, cold references replay the trace
            instead of re-simulating (the capture-once pipeline's
            verify-many half, now over the wire).
        allow_shutdown: honour the SHUTDOWN frame (CI smoke and tests; a
            production deployment leaves this off and stops via
            :meth:`stop`).
        session_limit: per-scheme concurrent reference-session cap.
        max_frame_bytes: framing cap handed to :mod:`repro.attestation.framing`.
        sock: an already-bound socket to serve on instead of binding
            ``host:port``.  The fleet deployment uses this for both
            dispatcher modes: a per-worker ``SO_REUSEPORT`` socket, or one
            pre-fork listening socket every worker inherits and accepts on.
        ready_file: when set, :meth:`start` atomically writes
            ``"host:port\\n"`` here once the server is accepting -- the
            deterministic readiness signal ``repro serve --ready-file``
            exposes (CI polls the file instead of grepping logs).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        database: Optional[MeasurementDatabase] = None,
        trace_store: Optional[TraceStore] = None,
        cpu_config: Optional[CpuConfig] = None,
        allow_shutdown: bool = False,
        session_limit: int = 4,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        sock=None,
        ready_file: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._listen_sock = sock
        self.ready_file = ready_file
        self.database = database if database is not None else MeasurementDatabase()
        self.trace_store = trace_store
        self.cpu_config = cpu_config or CpuConfig()
        self.allow_shutdown = allow_shutdown
        self.max_frame_bytes = max_frame_bytes
        self.verifier = Verifier(cpu_config=self.cpu_config)
        self.pool = SchemeSessionPool(limit=session_limit)
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._registered_programs: Dict[str, object] = {}
        self._provisioned_devices: set = set()
        #: Per-scheme (config, config digest), memoised: the canonical
        #: config hashing (asdict + JSON + SHA3) would otherwise run once
        #: per verified report.
        self._scheme_configs: Dict[str, Tuple[object, str]] = {}

    def _scheme_config(self, scheme_name: str) -> Tuple[object, str]:
        cached = self._scheme_configs.get(scheme_name)
        if cached is None:
            config = self.verifier.scheme_config(scheme_name)
            cached = (config, get_scheme(scheme_name).config_digest(config))
            self._scheme_configs[scheme_name] = cached
        return cached

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._stopping = asyncio.Event()
        if self._listen_sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._listen_sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.ready_file is not None:
            atomic_write_text(self.ready_file, "%s:%d\n" % (self.host, self.port))

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` or a SHUTDOWN frame arrives."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self.stop()

    async def drain(self, timeout: float = 5.0) -> bool:
        """Stop accepting, then wait for in-flight sessions to finish.

        Returns True when every active connection completed inside
        ``timeout``; False means stragglers were abandoned (their sockets
        die with the process).  The fleet worker calls this on SIGTERM so a
        drain never cuts a verification mid-report.
        """
        await self.stop()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self.stats.active_connections > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        return self.stats.active_connections == 0

    # ---------------------------------------------------------- provisioning
    def _program(self, program_id: str):
        """Resolve and lazily register ``program_id`` with the verifier.

        First registration also installs the program's StaticPolicy, so
        infeasible reports are rejected with ``POLICY_VIOLATION`` before any
        reference is computed: a policy persisted in the shared database
        wins (no dataflow passes run); otherwise the policy is derived from
        the analysis once and written back to the database so later server
        processes skip the derivation.
        """
        program = self._registered_programs.get(program_id)
        if program is None:
            program = get_workload(program_id).build()
            self.verifier.register_program(program_id, program)
            policy = self.database.lookup_policy(program.digest)
            policy = self.verifier.install_policy(program_id, policy)
            self.database.store_policy(policy)
            self._registered_programs[program_id] = program
        return program

    def _provision_device(self, device_id: str) -> None:
        """Install the device's verification key (derived provisioning model).

        The key store derives device keys deterministically from the device
        id (see :mod:`repro.attestation.crypto`), modelling keys provisioned
        at manufacturing time -- so the server can provision any device that
        announces itself in HELLO without a key exchange on the wire.
        """
        if device_id not in self._provisioned_devices:
            if len(self._provisioned_devices) >= MAX_PROVISIONED_DEVICES:
                self._provisioned_devices.clear()
                self.verifier.clear_device_keys()
            self.verifier.register_device_key(
                device_id, SecureKeyStore(device_id=device_id).export_for_verifier()
            )
            self._provisioned_devices.add(device_id)

    # ------------------------------------------------------------- verifying
    async def _expected_measurement(
        self, scheme_name: str, program_id: str, inputs: Tuple[int, ...]
    ) -> Tuple[bytes, bytes]:
        """The expected ``(A, serialized L)`` for one challenged execution.

        The database's reference sequence, split so that only the pure
        computation leaves the event loop: the lookup (primary key, then the
        benign capture's trace key) runs on the loop, a cold reference is
        computed on the executor through the session pool, and the store
        (both keys) runs back on the loop.
        """
        program = self._program(program_id)
        config, cfg_digest = self._scheme_config(scheme_name)
        capture = None

        def resolve_capture():
            nonlocal capture
            capture = benign_capture(
                self.trace_store, program_id, inputs, self.cpu_config)
            return capture

        entry = self.database.lookup(
            program, inputs, config, scheme_name, cfg_digest, resolve_capture)
        if entry is not None:
            return entry

        # The lookup resolved ``capture`` on its primary-key miss.
        key = MeasurementDatabase.key_for(
            program, inputs, config, scheme_name, cfg_digest)
        entry = await self.pool.reference(key, scheme_name, partial(
            compute_reference, program, inputs, scheme_name, config, capture,
            self.cpu_config, cfg_digest))
        self.database.store(
            program, inputs, config, entry[0], entry[1], scheme_name, capture,
            cfg_digest)
        return entry

    async def _verify_report(self, report: AttestationReport, device_id: str):
        """Screen the report, then compare it against its reference.

        Only a report that passed admission and the screen costs a database
        lookup (and, on a miss, a reference computation), so a hostile
        client cannot drive unbounded reference computation.  A reference
        whose ``L`` does not fit is rejected as the campaign runner does.
        """
        verdict, challenge = self.verifier.screen(report, device_id)
        if not verdict.accepted:
            return verdict
        try:
            expected = await self._expected_measurement(
                challenge.scheme, challenge.program_id, challenge.inputs)
        except MetadataLimitError as error:
            return VerificationResult(
                False, VerdictReason.METADATA_LIMIT, str(error))
        return self.verifier.compare(report, challenge, expected)

    # ------------------------------------------------------------ connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self.stats.active_connections += 1
        device_id = "prover-0"
        issued_nonces: set = set()
        try:
            device_id = await self._handshake(reader, writer)
            if device_id is None:
                return
            while True:
                try:
                    frame = await read_frame(reader, self.max_frame_bytes)
                except FramingError as error:
                    self.stats.protocol_errors += 1
                    await self._send_error(writer, error.code, str(error),
                                           fatal=True)
                    return
                if frame is None:
                    return
                self.stats.frames += 1
                frame_type, payload = frame
                if frame_type == FrameType.BYE:
                    await write_frame(writer, FrameType.BYE)
                    return
                if frame_type == FrameType.SHUTDOWN:
                    if not self.allow_shutdown:
                        self.stats.protocol_errors += 1
                        await self._send_error(
                            writer, "shutdown_refused",
                            "server was not started with allow_shutdown",
                            fatal=True)
                        return
                    await write_frame(writer, FrameType.BYE)
                    if self._stopping is not None:
                        self._stopping.set()
                    return
                if frame_type == FrameType.STATS_REQUEST:
                    document = self.stats.as_dict()
                    document["database"] = self.database.stats()
                    document["session_pool"] = self.pool.stats()
                    await write_frame(
                        writer, FrameType.STATS,
                        json.dumps(document).encode("utf-8"))
                    continue
                if frame_type == FrameType.CHALLENGE_REQUEST:
                    if not await self._handle_challenge_request(
                            writer, payload, issued_nonces):
                        return
                    continue
                if frame_type == FrameType.REPORT:
                    if not await self._handle_report(
                            writer, payload, device_id, issued_nonces):
                        return
                    continue
                # A frame type that decodes but has no business arriving
                # here (HELLO twice, server-only types): fail closed.
                self.stats.protocol_errors += 1
                await self._send_error(
                    writer, "unexpected_frame",
                    "frame type %s is not valid at this point" % frame_type.name,
                    fatal=True)
                return
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            self.stats.protocol_errors += 1
        finally:
            # Withdraw this connection's unanswered challenges: their nonces
            # must never verify later.
            for nonce in issued_nonces:
                self.verifier.discard_challenge(nonce)
            self.stats.active_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handshake(self, reader, writer) -> Optional[str]:
        """Run the HELLO/HELLO_ACK exchange.

        Returns the announced device id, or None when the connection must be
        torn down (framing error, missing HELLO, version mismatch).
        """
        try:
            frame = await read_frame(reader, self.max_frame_bytes)
        except FramingError as error:
            self.stats.protocol_errors += 1
            await self._send_error(writer, error.code, str(error), fatal=True)
            return None
        if frame is None:
            return None
        frame_type, payload = frame
        self.stats.frames += 1
        if frame_type != FrameType.HELLO:
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "hello_expected",
                "first frame must be HELLO, got %s" % frame_type.name,
                fatal=True)
            return None
        try:
            document = json.loads(payload.decode("utf-8"))
            versions = [int(v) for v in document["versions"]]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "malformed_hello", "HELLO payload is not valid",
                fatal=True)
            return None
        version = negotiate_version(versions)
        if version is None:
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "version_mismatch",
                "no common protocol version (client offered %r)" % versions,
                fatal=True)
            return None
        device_id = str(document.get("device_id", "prover-0"))
        self._provision_device(device_id)
        await write_frame(
            writer, FrameType.HELLO_ACK,
            json.dumps({
                "version": version,
                "server": "repro-attestation-server",
                "schemes": scheme_names(),
            }).encode("utf-8"))
        return device_id

    async def _handle_challenge_request(
        self, writer, payload: bytes, issued_nonces: set
    ) -> bool:
        try:
            document = json.loads(payload.decode("utf-8"))
            scheme = str(document["scheme"])
            program_id = str(document["program_id"])
            inputs = tuple(int(v) for v in document.get("inputs", []))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "malformed_request",
                "challenge request payload is not valid", fatal=True)
            return False
        if len(issued_nonces) >= MAX_OUTSTANDING_CHALLENGES:
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "too_many_outstanding",
                "connection exceeded %d unanswered challenges"
                % MAX_OUTSTANDING_CHALLENGES, fatal=True)
            return False
        try:
            get_scheme(scheme)
        except SchemeNotFoundError as error:
            # Request-level failure: reject the request, keep the session.
            await self._send_error(writer, "unknown_scheme", str(error),
                                   fatal=False)
            return True
        try:
            self._program(program_id)
        except KeyError as error:
            await self._send_error(writer, "unknown_program", str(error),
                                   fatal=False)
            return True
        challenge = self.verifier.challenge(program_id, inputs, scheme=scheme)
        issued_nonces.add(challenge.nonce)
        self.stats.challenges_issued += 1
        await write_frame(writer, FrameType.CHALLENGE, challenge.to_bytes())
        return True

    async def _handle_report(
        self, writer, payload: bytes, device_id: str, issued_nonces: set
    ) -> bool:
        try:
            report = AttestationReport.from_bytes(payload)
        except (ValueError, IndexError) as error:
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "malformed_report",
                "report does not deserialise: %s" % error, fatal=True)
            return False
        try:
            verdict = await self._verify_report(report, device_id)
        except Exception as error:  # noqa: BLE001 - one connection, not the server
            # An internal failure (corrupt trace blob, I/O error during a
            # cold reference) gets the same fail-closed treatment as
            # malformed input: ERROR frame, this connection only.
            self.stats.protocol_errors += 1
            await self._send_error(
                writer, "internal_error",
                "verification failed internally: %s" % error, fatal=True)
            return False
        if self.verifier.outstanding_challenge(report.nonce) is None:
            # Only drop the slot when the verifier actually consumed the
            # nonce; a rejection that leaves the challenge outstanding
            # (wrong scheme tag, bad signature) must still be withdrawn at
            # disconnect and keeps counting against the per-connection cap.
            issued_nonces.discard(report.nonce)
        self.stats.count_report(report.scheme, verdict.accepted)
        await write_frame(
            writer, FrameType.VERDICT,
            json.dumps({
                "accepted": verdict.accepted,
                "reason": verdict.reason.value,
                "detail": verdict.detail,
            }).encode("utf-8"))
        return True

    async def _send_error(
        self, writer, code: str, detail: str, fatal: bool
    ) -> None:
        """Best-effort ERROR frame (the socket may already be gone)."""
        try:
            await write_frame(
                writer, FrameType.ERROR, error_payload(code, detail, fatal))
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
