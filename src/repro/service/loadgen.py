"""Fleet load generator: realistic traffic from a simulated device fleet.

The one load generator behind ``repro fleet-load`` and the E14/E18
benchmarks.  A verifier for a million devices sees

* **device churn** -- sessions are short; a connection serves a handful of
  reports for one device, closes, and the next connection is a different
  device (cold signing keys, cold HELLO, cold provisioning table);
* **heavy-tailed report rates** -- a few chatty devices dominate while the
  long tail reports rarely.  Device identity is drawn log-uniformly over
  the population (Zipf-like: every order of magnitude of rank gets equal
  probability mass), so the generator exercises both the hot-device cache
  path and the cold-device provisioning path;
* **reconnect storms** -- a network blip makes every device reconnect at
  once.  The generator drops and re-opens all connections at synchronized
  points in the run and counts the reconnects;
* **stale reports** -- a device that lost its connection mid-round submits
  the old report on a fresh connection.  The verifier withdrew the nonce
  on disconnect, so the report *must* be rejected (``nonce_reused``);
* **duplicate reports** -- a retry bug (or a replay attacker) submits the
  same signed report twice.  The second copy *must* be rejected.

Injected anomalies are accounted separately from benign traffic: the run is
``ok`` only when every benign report was accepted *and* every injected
stale/duplicate was rejected -- the load generator doubles as a wire-level
freshness check on the whole fleet.

A session sends its rounds in chunks of ``batch`` through
:meth:`AttestationClient.attest_batch` (all challenge requests pipelined,
then all reports; a chunk of one is a plain round), and every round of a
chunk can still be picked for duplicate injection.

``processes > 1`` forks that many OS client processes, each driving its own
slice of connections from its own event loop, so a multi-worker fleet can
be saturated past a single client process's GIL ceiling.  Results merge
into one :class:`FleetLoadReport`.  :func:`drive_fleet_load` is the
coroutine each process runs; a caller already on an event loop (a test
serving in-process) awaits it directly.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpu.core import CpuConfig
from repro.service.client import (
    AttestationClient,
    RemoteAttestationError,
    SimulatedProver,
)

#: Verdict reason the verifier gives a withdrawn or consumed nonce; stale
#: and duplicate injections assert on it.
NONCE_REUSED = "nonce_reused"

#: Rejection reasons that count as a *correctly refused* stale report.  A
#: duplicate goes down the same connection, so its nonce is always consumed
#: on the same verifier and the reason is exactly ``nonce_reused``.  A stale
#: retry opens a *new* connection, which a fleet dispatcher may route to a
#: different worker -- one that never minted the nonce (``unknown_nonce``)
#: and may never have registered the program (``unknown_program``).  All
#: three refuse the stale report, which is the property under test.
STALE_REJECT_REASONS = frozenset(
    {"nonce_reused", "unknown_nonce", "unknown_program"})


@dataclass
class FleetLoadSpec:
    """Shape of the generated traffic (see the module docstring)."""

    devices: int = 1_000_000
    connections: int = 8
    processes: int = 1
    reports: int = 200
    schemes: Tuple[str, ...] = ("lofat",)
    workloads: Tuple[str, ...] = ("syringe_pump",)
    seed: int = 20170618
    #: Mean benign rounds a connection serves before the device churns
    #: (session lengths are geometric around this).
    session_rounds: int = 4
    storms: int = 0
    stale_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    pace_seconds: float = 0.0
    warmup: bool = True
    #: Rounds per verification session chunk; 1 sends each round on its own.
    batch: int = 1

    def validate(self) -> None:
        if self.devices < 1:
            raise ValueError("device population must be at least 1")
        if self.connections < 1:
            raise ValueError("need at least one connection")
        if self.processes < 1:
            raise ValueError("need at least one client process")
        if self.reports < 1:
            raise ValueError("need at least one report")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if not self.schemes or not self.workloads:
            raise ValueError("need at least one scheme and one workload")
        for name, value in (("stale_fraction", self.stale_fraction),
                            ("duplicate_fraction", self.duplicate_fraction)):
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1]" % name)


@dataclass
class FleetLoadReport:
    """Aggregated outcome of one fleet-load run (mergeable across processes)."""

    processes: int = 0
    connections: int = 0
    devices: int = 0
    reports: int = 0
    accepted: int = 0
    rejected_unexpected: int = 0
    sessions: int = 0
    reconnects: int = 0
    storms_completed: int = 0
    stale_injected: int = 0
    stale_rejected: int = 0
    duplicate_injected: int = 0
    duplicate_rejected: int = 0
    distinct_devices: int = 0
    #: Prover-side work: reports answered by trace replay vs live execution.
    replayed: int = 0
    executed: int = 0
    elapsed_seconds: float = 0.0
    by_scheme: Dict[str, int] = field(default_factory=dict)
    rejections: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def reports_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.reports / self.elapsed_seconds

    @property
    def ok(self) -> bool:
        """Benign traffic all accepted; injected anomalies all rejected."""
        return (
            self.reports > 0
            and self.rejected_unexpected == 0
            and self.stale_rejected == self.stale_injected
            and self.duplicate_rejected == self.duplicate_injected
        )

    def merge(self, other: "FleetLoadReport") -> None:
        self.processes += other.processes
        self.connections += other.connections
        self.devices = max(self.devices, other.devices)
        self.reports += other.reports
        self.accepted += other.accepted
        self.rejected_unexpected += other.rejected_unexpected
        self.sessions += other.sessions
        self.reconnects += other.reconnects
        self.storms_completed = max(
            self.storms_completed, other.storms_completed)
        self.stale_injected += other.stale_injected
        self.stale_rejected += other.stale_rejected
        self.duplicate_injected += other.duplicate_injected
        self.duplicate_rejected += other.duplicate_rejected
        # Device draws in different processes may collide; summing is an
        # upper bound but distinct ids are what churn coverage cares about.
        self.distinct_devices += other.distinct_devices
        self.replayed += other.replayed
        self.executed += other.executed
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        for scheme, count in other.by_scheme.items():
            self.by_scheme[scheme] = self.by_scheme.get(scheme, 0) + count
        self.rejections.extend(other.rejections)

    def as_dict(self) -> dict:
        return {
            "processes": self.processes,
            "connections": self.connections,
            "devices": self.devices,
            "reports": self.reports,
            "accepted": self.accepted,
            "rejected_unexpected": self.rejected_unexpected,
            "sessions": self.sessions,
            "reconnects": self.reconnects,
            "storms_completed": self.storms_completed,
            "stale_injected": self.stale_injected,
            "stale_rejected": self.stale_rejected,
            "duplicate_injected": self.duplicate_injected,
            "duplicate_rejected": self.duplicate_rejected,
            "distinct_devices": self.distinct_devices,
            "replayed": self.replayed,
            "executed": self.executed,
            "elapsed_seconds": self.elapsed_seconds,
            "reports_per_second": self.reports_per_second,
            "by_scheme": dict(self.by_scheme),
            "rejections": [list(item) for item in self.rejections],
            "ok": self.ok,
        }


def sample_device(rng: random.Random, population: int) -> str:
    """Draw a device id with a heavy-tailed (Zipf-like) popularity.

    ``rank + 1`` is log-uniform over ``[1, population + 1)``: ranks 0..8
    are as likely as 9..98, which are as likely as 99..998, and so on -- a few
    hot devices dominate while the tail, device ``population - 1``
    included, still gets drawn.  Deterministic in ``rng``.
    """
    if population <= 1:
        return "device-0000000"
    rank = int(math.exp(rng.random() * math.log(population + 1))) - 1
    rank = min(max(rank, 0), population - 1)
    return "device-%07d" % rank


class _SharedProgress:
    """Per-process run state the connection tasks coordinate through."""

    def __init__(self, spec: FleetLoadSpec, budget: int) -> None:
        self.spec = spec
        self.budget = budget
        self.issued = 0
        # Storm thresholds: at these benign-report counts every connection
        # drops and re-opens (a synchronized reconnect burst).
        self.storm_points = [
            max(1, budget * (index + 1) // (spec.storms + 1))
            for index in range(spec.storms)
        ]

    def take_round(self) -> bool:
        if self.issued >= self.budget:
            return False
        self.issued += 1
        return True

    def storms_due(self, completed: int) -> bool:
        return (
            completed < len(self.storm_points)
            and self.issued >= self.storm_points[completed]
        )


async def _drive_connection(
    slot: int,
    spec: FleetLoadSpec,
    host: str,
    port: int,
    trace_store,
    cpu_config: Optional[CpuConfig],
    progress: _SharedProgress,
    report: FleetLoadReport,
    seen_devices: set,
    rng: random.Random,
) -> None:
    plan = [(workload, None, scheme)
            for scheme in spec.schemes for workload in spec.workloads]
    storms_done = 0
    walked = 0
    while progress.issued < progress.budget:
        device_id = sample_device(rng, spec.devices)
        seen_devices.add(device_id)
        prover = SimulatedProver(
            device_id=device_id, trace_store=trace_store, cpu_config=cpu_config)
        client = AttestationClient(
            host, port, device_id, prover, pace_seconds=spec.pace_seconds)
        await client.connect()
        report.sessions += 1
        session_rounds = 1 + int(rng.expovariate(1.0 / max(1, spec.session_rounds)))
        abrupt_close = False
        try:
            round_index = 0
            while round_index < session_rounds:
                chunk = []
                while (len(chunk) < spec.batch and round_index < session_rounds
                       and progress.take_round()):
                    # Each connection walks the schemes x workloads product
                    # from its own offset, across its sessions.
                    chunk.append(plan[(slot + walked) % len(plan)])
                    walked += 1
                    round_index += 1
                if not chunk:
                    break
                results = await client.attest_batch(chunk)
                for (workload, _, scheme), (wire_report, verdict) in zip(
                        chunk, results):
                    report.reports += 1
                    report.by_scheme[scheme] = report.by_scheme.get(scheme, 0) + 1
                    if verdict.accepted:
                        report.accepted += 1
                    else:
                        report.rejected_unexpected += 1
                        report.rejections.append(
                            (scheme, workload, verdict.reason))

                    if rng.random() < spec.duplicate_fraction:
                        report.duplicate_injected += 1
                        duplicate = await client.submit_report(wire_report)
                        if (not duplicate.accepted
                                and duplicate.reason == NONCE_REUSED):
                            report.duplicate_rejected += 1

                if progress.storms_due(storms_done):
                    storms_done += 1
                    report.reconnects += 1
                    abrupt_close = True
                    break

            if not abrupt_close and rng.random() < spec.stale_fraction:
                # Stale report: challenge answered, connection lost before
                # the report went out, report retried on a new connection.
                workload, inputs, scheme = plan[report.sessions % len(plan)]
                challenge = await client.request_challenge(
                    workload, inputs, scheme)
                stale_report = prover.respond(challenge)
                await client.close(send_bye=False)  # server withdraws the nonce
                report.reconnects += 1
                retry = AttestationClient(host, port, device_id, prover)
                await retry.connect()
                try:
                    report.stale_injected += 1
                    verdict = await retry.submit_report(stale_report)
                    if (not verdict.accepted
                            and verdict.reason in STALE_REJECT_REASONS):
                        report.stale_rejected += 1
                finally:
                    await retry.close()
                continue
        finally:
            report.replayed += prover.replayed
            report.executed += prover.executed
            await client.close(send_bye=not abrupt_close)
    report.storms_completed = max(report.storms_completed, storms_done)


async def drive_fleet_load(
    host: str,
    port: int,
    spec: FleetLoadSpec,
    trace_dir: Optional[str] = None,
    cpu_config: Optional[CpuConfig] = None,
    process_index: int = 0,
    budget: Optional[int] = None,
    connections: Optional[int] = None,
) -> FleetLoadReport:
    """Drive one client process's share of the fleet load on this loop.

    The coroutine :func:`run_fleet_load` runs in each client process.
    ``budget`` (benign reports) and ``connections`` default to the whole
    spec; ``process_index`` picks the process's RNG streams, and only
    process 0 runs the warmup.
    """
    if budget is None:
        budget = spec.reports
    if connections is None:
        connections = spec.connections
    trace_store = None
    if trace_dir is not None:
        from repro.service.tracestore import TraceStore

        trace_store = TraceStore(trace_dir)

    report = FleetLoadReport(
        processes=1, connections=connections, devices=spec.devices)
    progress = _SharedProgress(spec, budget)
    seen_devices: set = set()

    if spec.warmup and process_index == 0:
        # One unmeasured round per (scheme, workload) so the fleet's cold
        # reference computations are not charged to the measured window
        # (and concurrent cold misses do not stampede the session pools).
        warm_prover = SimulatedProver(
            device_id="device-warmup", trace_store=trace_store,
            cpu_config=cpu_config)
        warm = AttestationClient(host, port, "device-warmup", warm_prover)
        await warm.connect()
        for scheme in spec.schemes:
            for workload in spec.workloads:
                await warm.attest_round(workload, None, scheme)
        await warm.close()

    started = time.perf_counter()
    await asyncio.gather(*(
        _drive_connection(
            slot, spec, host, port, trace_store, cpu_config, progress,
            report, seen_devices,
            # Integer seed derivation: tuple seeds fall back to hash(),
            # which PYTHONHASHSEED randomizes across runs.
            random.Random(spec.seed * 1_000_003 + process_index * 1_009 + slot),
        )
        for slot in range(connections)
    ))
    report.elapsed_seconds = time.perf_counter() - started
    report.distinct_devices = len(seen_devices)
    return report


def _process_entry(args: tuple) -> dict:
    (process_index, spec, host, port, trace_dir, cpu_config,
     budget, connections) = args
    result = asyncio.run(drive_fleet_load(
        host, port, spec, trace_dir, cpu_config,
        process_index, budget, connections))
    return result.as_dict()


def _report_from_dict(payload: dict) -> FleetLoadReport:
    report = FleetLoadReport()
    for key in (
        "processes", "connections", "devices", "reports", "accepted",
        "rejected_unexpected", "sessions", "reconnects", "storms_completed",
        "stale_injected", "stale_rejected", "duplicate_injected",
        "duplicate_rejected", "distinct_devices", "replayed", "executed",
        "elapsed_seconds",
    ):
        setattr(report, key, payload[key])
    report.by_scheme = dict(payload.get("by_scheme", {}))
    report.rejections = [tuple(item) for item in payload.get("rejections", [])]
    return report


def run_fleet_load(
    host: str,
    port: int,
    spec: Optional[FleetLoadSpec] = None,
    trace_dir: Optional[str] = None,
    cpu_config: Optional[CpuConfig] = None,
    **overrides,
) -> FleetLoadReport:
    """Run the fleet load against ``host:port`` and aggregate the outcome.

    ``spec`` (or keyword overrides applied to a default spec) shapes the
    traffic.  With ``processes == 1`` everything runs in this process; with
    more, client worker processes are forked (spawned where fork is
    unavailable) and their reports merged.  The connection budget and the
    report budget are split across processes; each process seeds its
    connection RNGs from ``(seed, process, slot)`` so runs are reproducible
    regardless of interleaving.
    """
    if spec is None:
        spec = FleetLoadSpec(**overrides)
    elif overrides:
        raise TypeError("pass either a spec or keyword overrides, not both")
    spec.validate()

    processes = min(spec.processes, spec.connections, spec.reports)
    per_process = [spec.reports // processes] * processes
    per_process[0] += spec.reports % processes
    connections = [spec.connections // processes] * processes
    connections[0] += spec.connections % processes

    if processes == 1:
        return asyncio.run(drive_fleet_load(
            host, port, spec, trace_dir, cpu_config))

    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    ctx = multiprocessing.get_context(method)
    jobs = [
        (index, spec, host, port, trace_dir, cpu_config,
         per_process[index], connections[index])
        for index in range(processes)
    ]
    with ctx.Pool(processes=processes) as pool:
        payloads = pool.map(_process_entry, jobs)
    merged = FleetLoadReport(devices=spec.devices)
    for payload in payloads:
        merged.merge(_report_from_dict(payload))
    return merged


__all__ = [
    "FleetLoadReport",
    "FleetLoadSpec",
    "NONCE_REUSED",
    "RemoteAttestationError",
    "drive_fleet_load",
    "run_fleet_load",
    "sample_device",
]
