"""Prover-side job execution (runs inside worker processes).

Each campaign job models one remote prover device answering one attestation
challenge under the job's attestation scheme (LO-FAT, C-FLAT, static, ...).
Since the capture-once / verify-many refactor the prover side is two stages:

* :func:`execute_capture_job` -- **stage 1**: run the CPU simulation once
  for a unique *execution signature* (program build, inputs, attack, core
  config -- scheme-independent, see :mod:`repro.service.tracestore`) and
  return the compact control-flow trace plus the execution's observable
  outputs.  This is the only stage with a CPU in the loop.
* :func:`execute_attest_job` -- **stage 2**: replay a stored trace through
  the job's scheme session (:meth:`AttestationScheme.replay_measurement`),
  sign the measurement and return the report -- byte-identical to live
  execution, no simulation.  A per-process replay cache (a
  :class:`repro.service.database.MeasurementDatabase` keyed by trace
  digest) makes repeated (scheme, config, trace) replays O(lookup); its
  hit/miss counters travel back on the response so the campaign report can
  aggregate cache accounting across worker processes instead of reporting
  only the parent's numbers.

:func:`execute_prover_job` -- capture and attest fused in one call -- remains
the single-stage path (the ``pipeline="live"`` baseline, and the fallback
for captures whose trace is not replayable).

Everything a worker touches is rebuilt from registry names inside the worker
process -- including the scheme and its configuration, resolved from
:mod:`repro.schemes` -- and everything it returns is a plain picklable value.
The hardware-protected signing key never crosses the process boundary (it is
derived in-worker from the device id, and
:class:`repro.attestation.crypto.SecureKeyStore` refuses to pickle).

Per-process caches keep repeated jobs cheap: assembled programs are reused
across jobs (``maxsize`` bounded), the CPU's decoded-instruction cache is
shared process-wide, and the replay cache dedupes stage-2 measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.attacks import get_attack
from repro.attestation.crypto import SecureKeyStore, sign_report
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.attestation.prover import Prover
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.cpu.tracefile import dumps_trace, trace_digest
from repro.isa.assembler import Program
from repro.lofat.metadata import LazyLoopMetadata
from repro.schemes import get_scheme
from repro.service.campaign import CampaignJob
from repro.service.database import MeasurementDatabase
from repro.service.tracestore import CapturedExecution, workload_build_signature
from repro.workloads import get_workload

#: The payload shipped to a worker: the job plus the challenge nonce minted
#: by the verifier in the parent process.
ProverJobPayload = Tuple[CampaignJob, bytes]

#: A stage-1 payload: (signature, workload name, inputs, attack name).
CaptureJobPayload = Tuple[str, str, Tuple[int, ...], Optional[str]]

#: A stage-2 payload: the job, its nonce and the stored capture to replay.
#: ``None`` as the capture requests the live single-stage fallback.
AttestJobPayload = Tuple[CampaignJob, bytes, Optional[CapturedExecution]]


@dataclass
class ProverResponse:
    """What one prover execution sends back to the verifier service."""

    job_id: str
    report: AttestationReport
    instructions: int
    cycles: int
    pairs_hashed: int
    control_flow_events: int
    prover_seconds: float
    #: Stage-2 replay-cache accounting of this job in its worker process
    #: (both zero for live executions); the runner aggregates these across
    #: processes into the campaign's database statistics.
    replay_cache_hits: int = 0
    replay_cache_misses: int = 0
    #: True when the report came from a stored-trace replay, False for a
    #: live CPU execution.
    replayed: bool = False


@dataclass
class CaptureResponse:
    """What one stage-1 capture sends back to the campaign runner."""

    signature: str
    trace_bytes: bytes
    trace_digest: str
    exit_code: int
    output: str
    instructions: int
    cycles: int
    replayable: bool
    capture_seconds: float


@lru_cache(maxsize=128)
def _assemble_cached(workload_name: str, build_signature: str) -> Program:
    """Assemble (once per worker process) the identified workload build."""
    return get_workload(workload_name).build()


def _assembled_program(workload_name: str) -> Program:
    """The assembled program for ``workload_name``, cached per build.

    The cache key includes the build signature, not just the name: two jobs
    that share a workload name but were registered with different sources
    (common in tests that re-register workloads) each get their own
    :class:`Program`.
    """
    return _assemble_cached(
        workload_name, workload_build_signature(get_workload(workload_name))
    )


@lru_cache(maxsize=16)
def _keystore(device_id: str) -> SecureKeyStore:
    """The device keystore, derived in-process (never crosses the boundary)."""
    return SecureKeyStore(device_id=device_id)


#: Per-process stage-2 replay cache: (A, serialized L) keyed by (scheme,
#: trace digest, config digest).  A campaign with repeats -- or any two jobs
#: sharing a trace under the same scheme and configuration -- replays once
#: per process instead of once per job.
_REPLAY_CACHE = MeasurementDatabase()
#: Metadata and session statistics for cached replays, keyed like the replay
#: cache: ``cache_key -> (LazyLoopMetadata, stats)``.  Caching the metadata
#: object matters as much as caching the measurement: re-parsing ``L`` from
#: bytes -- or re-serialising it for every report's ``to_bytes`` -- dominated
#: the replay hot path (it is the per-report cost of the remote attestation
#: client).  The lazy form carries the serialised bytes for free and parses
#: records only if a consumer iterates them; the object is shared across
#: reports, which is safe because metadata is read-only once a session
#: finalizes.
_REPLAY_STATS: Dict[tuple, Tuple[LazyLoopMetadata, dict]] = {}


def clear_replay_cache() -> None:
    """Drop this process's stage-2 replay cache (tests and benchmarks)."""
    global _REPLAY_CACHE
    _REPLAY_CACHE = MeasurementDatabase()
    _REPLAY_STATS.clear()


def execute_prover_job(
    payload: ProverJobPayload,
    device_id: str = "prover-0",
    cpu_config: Optional[CpuConfig] = None,
) -> ProverResponse:
    """Run one campaign job on a simulated prover device and sign the result.

    The single-stage path: capture and attest fused in one live execution.
    ``cpu_config`` carries the runner's core-model parameters (instruction
    budget, latencies) to the prover side, so prover and verifier simulate
    the same machine.  The execution always streams its trace into the
    scheme's measurement session (``collect_trace`` is forced off): the
    monitor consumes records as they retire, so memory stays flat no matter
    how long the workload runs.
    """
    job, nonce = payload
    program = _assembled_program(job.workload)
    prover = Prover(
        {job.workload: program},
        cpu_config=replace(cpu_config or CpuConfig(), collect_trace=False),
        device_id=device_id,
    )
    prover.configure_scheme(job.scheme, job.scheme_config())
    if job.attack is not None:
        scenario = get_attack(job.attack)
        prover.install_attack(scenario.prover_hook(program))

    challenge = AttestationChallenge(
        program_id=job.workload, inputs=job.inputs, nonce=nonce,
        scheme=job.scheme,
    )
    started = time.perf_counter()
    report = prover.attest(challenge)
    elapsed = time.perf_counter() - started

    run = prover.last_run
    stats = run.engine_stats if run else {}
    return ProverResponse(
        job_id=job.job_id,
        report=report,
        instructions=run.instructions if run else 0,
        cycles=run.cycles if run else 0,
        pairs_hashed=int(stats.get("pairs_hashed", 0)),
        control_flow_events=int(stats.get("control_flow_events", 0)),
        prover_seconds=elapsed,
    )


def execute_capture_job(
    payload: CaptureJobPayload,
    cpu_config: Optional[CpuConfig] = None,
) -> CaptureResponse:
    """Stage 1: simulate one unique execution and capture its trace.

    Scheme-independent by construction: no measurement session is attached,
    only a :class:`repro.cpu.trace.ControlFlowTrace` capturing the
    control-flow record stream (the exact stream the fast path would hand a
    scheme session) plus the straight-line run counters.  Attack scenarios
    install their memory-corruption hooks exactly as the live prover does,
    so the captured trace is the attacked execution.
    """
    signature, workload_name, inputs, attack = payload
    program = _assembled_program(workload_name)
    started = time.perf_counter()
    cpu = Cpu(
        program,
        inputs=list(inputs),
        config=replace(cpu_config or CpuConfig(), collect_trace=False),
    )
    capture = ControlFlowTrace()
    cpu.attach_monitor(capture.observe)
    if attack is not None:
        get_attack(attack).prover_hook(program)(cpu)
    result = cpu.run()
    trace_bytes = dumps_trace(capture)
    elapsed = time.perf_counter() - started
    return CaptureResponse(
        signature=signature,
        trace_bytes=trace_bytes,
        trace_digest=trace_digest(trace_bytes),
        exit_code=result.exit_code,
        output=result.output,
        instructions=result.instructions,
        cycles=result.cycles,
        replayable=capture.replayable,
        capture_seconds=elapsed,
    )


def execute_attest_job(
    payload: AttestJobPayload,
    device_id: str = "prover-0",
    cpu_config: Optional[CpuConfig] = None,
) -> ProverResponse:
    """Stage 2: attest one job from its stored capture -- no CPU in the loop.

    Replays the capture's control-flow trace through the job's scheme
    session (or serves the measurement from the per-process replay cache),
    signs ``A || L`` with the in-process device key against the job's nonce,
    and rebuilds the report with the captured execution outputs.  The result
    is byte-identical to :func:`execute_prover_job` on the same execution.

    A payload whose capture is ``None`` (or not replayable) falls back to
    the live single-stage path; ``cpu_config`` is only consumed on that
    fallback.
    """
    job, nonce, capture = payload
    if capture is None or not capture.replayable:
        response = execute_prover_job((job, nonce), device_id, cpu_config)
        return response

    started = time.perf_counter()
    program = _assembled_program(job.workload)
    scheme = get_scheme(job.scheme)
    config = job.scheme_config()
    config_digest = job.scheme_config_digest()
    cache_key = (job.scheme, capture.trace_digest, config_digest)
    hits_before, misses_before = _REPLAY_CACHE.counters()

    entry = _REPLAY_CACHE.lookup_trace(
        job.scheme, capture.trace_digest, config, config_digest)
    if entry is not None:
        measurement_bytes, metadata_bytes = entry
        cached = _REPLAY_STATS.get(cache_key)
        if cached is not None:
            metadata, stats = cached
        else:
            metadata = LazyLoopMetadata(metadata_bytes)
            stats = {}
    else:
        measured = scheme.replay_measurement(
            program, capture.trace(), config=config)
        measurement_bytes = measured.measurement
        metadata_bytes = measured.metadata.to_bytes()
        metadata = LazyLoopMetadata(metadata_bytes)
        stats = measured.stats
        _REPLAY_CACHE.store_trace(
            job.scheme, capture.trace_digest, config,
            measurement_bytes, metadata_bytes, config_digest,
        )
        _REPLAY_STATS[cache_key] = (metadata, stats)
    hits_after, misses_after = _REPLAY_CACHE.counters()

    signature = sign_report(
        measurement_bytes + metadata_bytes, nonce, _keystore(device_id))
    report = AttestationReport(
        program_id=job.workload,
        measurement=measurement_bytes,
        metadata=metadata,
        nonce=nonce,
        signature=signature,
        exit_code=capture.exit_code,
        output=capture.output,
        scheme=scheme.name,
    )
    elapsed = time.perf_counter() - started
    return ProverResponse(
        job_id=job.job_id,
        report=report,
        instructions=capture.instructions,
        cycles=capture.cycles,
        pairs_hashed=int(stats.get("pairs_hashed", 0)),
        control_flow_events=int(stats.get("control_flow_events", 0)),
        prover_seconds=elapsed,
        replay_cache_hits=hits_after - hits_before,
        replay_cache_misses=misses_after - misses_before,
        replayed=True,
    )
