"""The ``server-steady`` workload: wire verification under a closed loop.

A ``repro serve`` subprocess (started through :mod:`perfbench.serve`) is
driven by :data:`CONNECTIONS` unpaced closed-loop connections from this
process: each sends its next round as soon as the previous verdict
arrived.  Rounds cycle over every registry workload x lofat/cflat/static at
the default inputs, in a seed-shuffled order.  Every
:data:`HOSTILE_EVERY`-th round is hostile, cycling through
:data:`HOSTILE_KINDS`, each with the verdict it must draw.  Each connection
reconnects under a fresh device id every :data:`RECONNECT_EVERY` rounds.

The reports' ``(A, L)`` are measured once during set-up; a round only
requests a challenge, signs and frames, so after set-up no simulation runs
in either process and the server's verify path is what is measured.  Each
connection is a thread on a blocking socket: the threads wait for the
server outside the interpreter lock, which keeps the generator's CPU share
well below the server's (``loadgen.cpu_frac`` vs ``server.cpu_frac``).

``repro`` is imported inside the functions that use it, so that importing
it counts toward ``setup_s``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from perfbench import calibration
from perfbench import tracer as tracing
from perfbench.metrics import Outcomes, median, windowed_quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMES = ("lofat", "cflat", "static")
CONNECTIONS = 2
RECONNECT_EVERY = 250
HOSTILE_EVERY = 10
HOSTILE_KINDS = ("bad_signature", "nonce_reused", "policy_violation",
                 "measurement_mismatch")
#: Calibrated windows a timed run is split into; rates are their median.
SLICES = 8
#: Rounds in the traced window (a fixed amount of work, so its per-layer
#: counts repeat exactly for a seed).
TRACE_ROUNDS = 10000
#: Seconds to wait for the server to come up, answer, mark or exit.
PROCESS_TIMEOUT = 60.0


@dataclass
class Attestation:
    """One precomputed (workload, scheme) execution and its report parts."""

    program_id: str
    scheme: str
    request: bytes
    measurement: bytes
    metadata: bytes
    exit_code: int
    output: str
    instructions: int


def precompute(seed: int):
    """Measure every registry workload under every scheme once.

    Returns the seed-shuffled round plan and the lofat reports whose loop
    metadata is tampered into a statically infeasible iteration count.
    """
    from repro.cpu.core import CpuConfig
    from repro.dataflow import analyze_program
    from repro.lofat.metadata import LoopMetadata
    from repro.schemes import get_scheme
    from repro.workloads import all_workloads

    plan: List[Attestation] = []
    tampered: List[Attestation] = []
    cpu_config = CpuConfig(collect_trace=False)
    for workload in all_workloads():
        program = workload.build()
        for scheme in SCHEMES:
            result, measured = get_scheme(scheme).measure_execution(
                program, workload.inputs, cpu_config=cpu_config)
            attestation = Attestation(
                program_id=workload.name,
                scheme=scheme,
                request=json.dumps({
                    "scheme": scheme, "program_id": workload.name,
                    "inputs": [int(v) for v in workload.inputs],
                }).encode("utf-8"),
                measurement=measured.measurement,
                metadata=measured.metadata.to_bytes(),
                exit_code=result.exit_code,
                output=result.output,
                instructions=result.instructions,
            )
            plan.append(attestation)
            if scheme != "lofat":
                continue
            policy = analyze_program(program).policy
            metadata = LoopMetadata.from_bytes(attestation.metadata)
            for record in metadata:
                bound = policy.bound_for(record.entry)
                if bound is None or not record.paths:
                    continue
                extra = bound.max_iterations + 1 - record.iterations
                record.iterations += extra
                record.paths[0] = replace(
                    record.paths[0],
                    iterations=record.paths[0].iterations + extra)
                tampered.append(replace(attestation,
                                        metadata=metadata.to_bytes()))
                break
    random.Random(seed).shuffle(plan)
    if not tampered:
        raise RuntimeError("no registry workload has a bounded loop to tamper")
    return plan, tampered


@dataclass
class Share:
    """What one connection measured in a window."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    latencies: List[float] = field(default_factory=list)
    #: Completion time and attested instructions of each ok round.
    done: List[float] = field(default_factory=list)
    instructions: List[int] = field(default_factory=list)


class Connection:
    """One blocking prover connection (fresh device id per generation)."""

    def __init__(self, port: int, device_prefix: str) -> None:
        self.port = port
        self.device_prefix = device_prefix
        self.generation = 0
        self.rounds = 0
        self.sock: Optional[socket.socket] = None
        self.rfile = None
        self.keystore = None
        #: The last report accepted on this connection slot: resent as the
        #: replay attack.
        self.last_accepted: Optional[bytes] = None

    def open(self) -> None:
        from repro.attestation.crypto import SecureKeyStore
        from repro.attestation.framing import FrameType, hello_payload

        device_id = "%s-g%d" % (self.device_prefix, self.generation)
        self.generation += 1
        self.rounds = 0
        self.keystore = SecureKeyStore(device_id=device_id)
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=PROCESS_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.send(FrameType.HELLO, hello_payload(device_id=device_id))
        self.expect(FrameType.HELLO_ACK)

    def close(self) -> None:
        from repro.attestation.framing import FrameType

        if self.sock is None:
            return
        try:
            self.send(FrameType.BYE)
            self.expect(FrameType.BYE)
        except (OSError, RuntimeError):
            pass  # the server may already have dropped a failed connection
        finally:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None

    def send(self, frame_type, payload: bytes = b"") -> None:
        from repro.attestation.framing import encode_frame

        self.sock.sendall(encode_frame(frame_type, payload))

    def expect(self, frame_type) -> bytes:
        """Read one frame; anything but ``frame_type`` raises RuntimeError."""
        from repro.attestation.framing import HEADER_BYTES

        header = self.rfile.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES:
            raise RuntimeError("server closed the connection")
        payload = self.rfile.read(int.from_bytes(header[1:], "little"))
        if header[0] != frame_type:
            raise RuntimeError("expected %s, got frame type %#x: %r" % (
                frame_type.name, header[0], payload[:200]))
        return payload

    def attest(self, attestation: Attestation, kind: Optional[str]):
        """One round; returns (verdict reason, REPORT->VERDICT seconds)."""
        from repro.attestation.crypto import sign_report
        from repro.attestation.framing import FrameType
        from repro.attestation.protocol import (
            AttestationChallenge, AttestationReport,
        )
        from repro.lofat.metadata import LazyLoopMetadata

        if kind == "nonce_reused":
            report = self.last_accepted
        else:
            self.send(FrameType.CHALLENGE_REQUEST, attestation.request)
            nonce = AttestationChallenge.from_bytes(
                self.expect(FrameType.CHALLENGE)).nonce
            measurement = attestation.measurement
            if kind == "measurement_mismatch":
                measurement = bytes([measurement[0] ^ 0x01]) + measurement[1:]
            signature = sign_report(measurement + attestation.metadata, nonce,
                                    self.keystore)
            if kind == "bad_signature":
                signature = bytes([signature[0] ^ 0x01]) + signature[1:]
            report = AttestationReport(
                program_id=attestation.program_id,
                measurement=measurement,
                metadata=LazyLoopMetadata(attestation.metadata),
                nonce=nonce,
                signature=signature,
                exit_code=attestation.exit_code,
                output=attestation.output,
                scheme=attestation.scheme,
            ).to_bytes()
        started = time.perf_counter()
        self.send(FrameType.REPORT, report)
        payload = self.expect(FrameType.VERDICT)
        latency = time.perf_counter() - started
        reason = json.loads(payload.decode("utf-8"))["reason"]
        if kind is None and reason == "accepted":
            self.last_accepted = report
        return reason, latency


class LoadGenerator:
    """Drives one server process: warm-up, timed windows, shutdown."""

    def __init__(self, seed: int, plan, tampered, port: int) -> None:
        self.seed = seed
        self.plan = plan
        self.tampered = tampered
        self.port = port
        self.connections = [
            Connection(port, "perfbench-%d-c%d" % (seed, index))
            for index in range(CONNECTIONS)]
        #: Round indices, shared by the connections: the schedule of kinds
        #: is fixed by the index, whichever connection draws it.
        self.rounds = itertools.count()

    def schedule(self, index: int):
        """Round ``index``: (attestation, hostile kind or None)."""
        if index % HOSTILE_EVERY != HOSTILE_EVERY - 1:
            return self.plan[index % len(self.plan)], None
        hostile = index // HOSTILE_EVERY
        kind = HOSTILE_KINDS[hostile % len(HOSTILE_KINDS)]
        if kind == "policy_violation":
            return self.tampered[hostile % len(self.tampered)], kind
        return self.plan[index % len(self.plan)], kind

    def warm_up(self, outcomes: Outcomes) -> None:
        """Every plan entry once, so each server reference is computed."""
        connection = Connection(self.port, "perfbench-%d-warm" % self.seed)
        connection.open()
        try:
            for attestation in self.plan:
                reason, _ = connection.attest(attestation, None)
                outcomes.record("accepted", reason, "%s/%s warm-up" % (
                    attestation.program_id, attestation.scheme))
        finally:
            connection.close()

    def drive(self, connection: Connection, deadline: float, limit: int,
              share: Share) -> None:
        """Closed loop until ``deadline`` or round index ``limit``."""
        while time.perf_counter() < deadline:
            index = next(self.rounds)
            if index >= limit:
                break
            attestation, kind = self.schedule(index)
            if kind == "nonce_reused" and connection.last_accepted is None:
                kind = None
            expected = kind or "accepted"
            try:
                if connection.sock is None or connection.rounds >= RECONNECT_EVERY:
                    connection.close()
                    connection.open()
                connection.rounds += 1
                reason, latency = connection.attest(attestation, kind)
            except (OSError, RuntimeError, ValueError) as error:
                share.outcomes.record(expected, None, str(error))
                connection.close()
                continue
            share.latencies.append(latency)
            if share.outcomes.record(expected, reason, "%s/%s" % (
                    attestation.program_id, attestation.scheme)):
                share.done.append(time.perf_counter())
                share.instructions.append(
                    attestation.instructions if kind is None else 0)

    def window(self, seconds: float, rounds: int) -> dict:
        """Run every connection's closed loop; merged measurements."""
        shares = [Share() for _ in self.connections]
        errors: List[BaseException] = []

        def run(connection: Connection, share: Share) -> None:
            try:
                self.drive(connection, deadline, rounds, share)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        self.rounds = itertools.count()
        started = time.perf_counter()
        cpu_started = time.process_time()
        deadline = started + seconds
        threads = [threading.Thread(target=run, args=pair)
                   for pair in zip(self.connections, shares)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + PROCESS_TIMEOUT)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a load connection did not finish")
        if errors:
            raise errors[0]
        for connection in self.connections:
            connection.close()
        window = {"seconds": elapsed, "cpu": cpu, "started": started,
                  "outcomes": Outcomes(), "latencies": [], "done": [],
                  "instructions": []}
        for share in shares:
            window["outcomes"].merge(share.outcomes)
            window["latencies"].extend(share.latencies)
            window["done"].extend(share.done)
            window["instructions"].extend(share.instructions)
        return window

    def shutdown(self) -> None:
        from repro.attestation.framing import FrameType

        connection = Connection(self.port, "perfbench-%d-stop" % self.seed)
        connection.open()
        try:
            connection.send(FrameType.SHUTDOWN)
            connection.expect(FrameType.BYE)
        finally:
            connection.rfile.close()
            connection.sock.close()


class ServerProcess:
    """The ``repro serve`` subprocess and its mark/ready files."""

    def __init__(self, traced: bool) -> None:
        self.directory = os.path.join(
            ROOT, ".perfbench", "server-%d-%d" % (os.getpid(), time.time_ns()))
        os.makedirs(self.directory)
        self.ready = os.path.join(self.directory, "ready")
        self.marks = os.path.join(self.directory, "marks.json")
        self.log_path = os.path.join(self.directory, "serve.log")
        command = [sys.executable, os.path.join(ROOT, "perfbench", "serve.py"),
                   "--marks", self.marks]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--port", "0", "--allow-shutdown",
                    "--ready-file", self.ready]
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=self.log,
                                        stderr=subprocess.STDOUT)

    def _wait_for(self, condition, what: str) -> None:
        deadline = time.perf_counter() + PROCESS_TIMEOUT
        while not condition():
            if self.process.poll() is not None:
                raise RuntimeError("server exited (%s) before %s:\n%s" % (
                    self.process.returncode, what, self.log_tail()))
            if time.perf_counter() > deadline:
                raise RuntimeError("server timed out before %s" % what)
            time.sleep(0.005)

    def port(self) -> int:
        self._wait_for(lambda: os.path.exists(self.ready), "listening")
        with open(self.ready) as handle:
            return int(handle.read().strip().rsplit(":", 1)[1])

    def mark(self) -> dict:
        """Signal a window mark and return it once written."""
        count = len(self._marks())
        self.process.send_signal(
            signal.SIGUSR1 if count == 0 else signal.SIGUSR2)
        self._wait_for(lambda: len(self._marks()) > count, "marking")
        return self._marks()[count]

    def _marks(self) -> list:
        try:
            with open(self.marks) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return []

    def log_tail(self) -> str:
        self.log.flush()
        with open(self.log_path) as handle:
            return "".join(handle.readlines()[-20:])

    def stop(self) -> None:
        """Wait for exit (after a wire SHUTDOWN); kill if it does not come."""
        try:
            self.process.wait(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()
            shutil.rmtree(self.directory, ignore_errors=True)


class ServerWorkload:
    """``server-steady`` bound to a seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.outcomes = Outcomes()
        self.server: Optional[ServerProcess] = None
        self.load: Optional[LoadGenerator] = None

    def setup(self, traced: bool = False) -> None:
        """Precompute reports, start the server, warm its references."""
        plan, tampered = precompute(self.seed)
        self.server = ServerProcess(traced)
        self.load = LoadGenerator(self.seed, plan, tampered, self.server.port())
        self.load.warm_up(self.outcomes)

    def _windows(self, seconds: float, rounds: int, slices: int):
        """Calibrated closed-loop windows inside one pair of server marks.

        The host speed is measured around every window while the server
        idles; each window gets the factor measured around it.  Returns
        ``(windows, first mark, second mark)``.
        """
        speeds = [calibration.speed()]
        first = self.server.mark()
        windows = []
        for index in range(slices):
            windows.append(self.load.window(seconds / slices, rounds))
            self.outcomes.merge(windows[-1]["outcomes"])
            if index < slices - 1:
                speeds.append(calibration.speed())
        second = self.server.mark()
        speeds.append(calibration.speed())
        for index, window in enumerate(windows):
            window["factor"] = calibration.factor(speeds[index],
                                                  speeds[index + 1])
        return windows, first, second

    def measure(self, seconds: float) -> Dict[str, float]:
        windows, first, second = self._windows(seconds, 1 << 62, SLICES)
        server_cpu = second["cpu"] - first["cpu"]
        busy = sum(w["seconds"] for w in windows)
        loadgen_cpu = sum(w["cpu"] for w in windows)
        done = sum(len(w["done"]) for w in windows)
        latencies_ms = [[1e3 * s * w["factor"] for s in w["latencies"]]
                        for w in windows]
        p99 = windowed_quantile(latencies_ms, 0.99)
        if p99 is None:
            raise RuntimeError("too few REPORT->VERDICT samples for a p99")
        return {
            "attest_per_s": median([_rate(w) for w in windows]),
            "attested_minstr_per_s": median(
                [sum(w["instructions"]) / (w["seconds"] * w["factor"]) / 1e6
                 for w in windows]),
            "cpu_ms_per_attest": 1e3 * (loadgen_cpu + server_cpu) / max(1, done)
            * median([w["factor"] for w in windows]),
            "verify_p50_ms": windowed_quantile(latencies_ms, 0.5, 0),
            "verify_p99_ms": p99,
            "peak_rss_mb": second["rss_mb"],
            "samples": sum(len(window) for window in latencies_ms),
            "server.cpu_frac": server_cpu / busy,
            "loadgen.cpu_frac": loadgen_cpu / busy,
            "wall.attest_per_s": median(
                [len(w["done"]) / w["seconds"] for w in windows]),
            "host.speed_factor": median([w["factor"] for w in windows]),
        }

    def check(self) -> None:
        """Nothing left to check: every round was checked against its
        expected verdict, and the warm-up's acceptances show the set-up
        ``(A, L)`` equal the server's own references byte for byte."""

    def teardown(self) -> None:
        """Stop the server over the wire (killed if it does not exit)."""
        if self.server is None:
            return
        try:
            if self.load is not None and self.server.process.poll() is None:
                self.load.shutdown()
        finally:
            self.server.stop()
            self.server = None

    close = teardown

    def trace(self, seconds: float) -> Dict[str, float]:
        """Untraced server for half the time, then a traced one."""
        self.setup()
        try:
            untraced = self.measure(seconds / 2)
        finally:
            self.teardown()

        # The set-up measures every report in this process, untraced but
        # for a Cpu.run probe; the traced server computes the same
        # references during warm-up, so both must have taken one engine.
        probe = tracing.Tracer()
        patcher = tracing.install_engine_probe(probe)
        try:
            self.setup(traced=True)
        finally:
            patcher.uninstall()
        try:
            (window,), first, second = self._windows(
                PROCESS_TIMEOUT, TRACE_ROUNDS, 1)
        finally:
            self.teardown()
        engines = set(map(str, probe.snapshot()["engines"]))
        served = set(map(str, first["trace"]["engines"]))
        if served != engines:
            self.outcomes.record("same engines", "traced server %s vs %s" % (
                sorted(served), sorted(engines)))
        spans = tracing.diff_snapshots(second["trace"], first["trace"])
        metrics = tracing.layer_metrics(
            spans, second["wall"] - first["wall"], first["trace"])
        metrics["cpu.plan_compiles"] = second["compiles"]
        metrics["service.dedup_rate"] = 0.0
        metrics["service.replay_cache_hit_rate"] = 0.0
        metrics["server.cpu_frac"] = untraced["server.cpu_frac"]
        metrics["loadgen.cpu_frac"] = untraced["loadgen.cpu_frac"]
        metrics["trace.overhead_frac"] = \
            untraced["attest_per_s"] / _rate(window) - 1
        return metrics


def _rate(window: dict) -> float:
    """Completed rounds per reference second in one window."""
    return len(window["done"]) / (window["seconds"] * window["factor"])
