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
  execution, no simulation.  The replay goes through the process's one
  replay memo (:func:`repro.service.database.replay_capture`, keyed by
  scheme, trace digest and config digest), which the verifier's
  references share: in a sequential campaign a benign job's reference is
  the memo entry its own stage 2 left.  Each response says whether its
  own replay hit, so the campaign report can aggregate cache accounting
  across worker processes instead of reporting only the parent's numbers.

An execution whose loop metadata ``L`` does not fit its encoding
(:class:`repro.lofat.metadata.MetadataLimitError`) answers with no report
and the error's message as ``failure``; the runner rejects that job with
reason ``metadata_limit`` instead of ending the campaign.

:func:`execute_prover_job` -- capture and attest fused in one call -- remains
the single-stage path (the ``pipeline="live"`` baseline, and the fallback
for captures whose trace is not replayable).

Everything a worker touches is rebuilt from registry names inside the worker
process -- including the scheme and its configuration, resolved from
:mod:`repro.schemes` -- and everything it returns is a plain picklable value.
The hardware-protected signing key never crosses the process boundary (it is
derived in-worker from the device id, and
:class:`repro.attestation.crypto.SecureKeyStore` refuses to pickle).

Per-process :class:`repro.cache.DigestCache` instances keep repeated jobs
cheap: programs assemble once per registration, device keys derive once per
device, and the replay memo dedupes replayed measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.attacks import get_attack
from repro.cache import DigestCache
from repro.attestation.crypto import SecureKeyStore, sign_report
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.attestation.prover import Prover
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.cpu.tracefile import dumps_trace, trace_digest
from repro.isa.assembler import Program
from repro.lofat.metadata import MetadataLimitError
from repro.schemes import get_scheme
from repro.service.campaign import CampaignJob
# ``clear_replay_cache`` is re-exported: benchmarks clear the replay memo
# through this module.
from repro.service.database import clear_replay_cache as clear_replay_cache
from repro.service.database import replay_capture
from repro.service.tracestore import CapturedExecution
from repro.workloads import WORKLOAD_REGISTRY, get_workload

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
    #: The signed report, or None when the execution's ``L`` does not fit
    #: its encoding (``failure`` says why).
    report: Optional[AttestationReport]
    instructions: int
    cycles: int
    pairs_hashed: int
    control_flow_events: int
    prover_seconds: float
    #: The execution's observable outputs (also carried by ``report``).
    exit_code: int = 0
    output: str = ""
    #: Stage-2 replay-cache accounting of this job in its worker process
    #: (both zero for live executions); the runner aggregates these across
    #: processes into the campaign's database statistics.
    replay_cache_hits: int = 0
    replay_cache_misses: int = 0
    #: True when the report came from a stored-trace replay, False for a
    #: live CPU execution.
    replayed: bool = False
    #: The :class:`MetadataLimitError` message when no report could be
    #: encoded, else empty.
    failure: str = ""


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


#: Assembled programs keyed by (workload name, registry factory): a factory
#: builds the same program on every call, and re-registering a name installs
#: a new factory, so no lookup hashes the workload's source.
_PROGRAMS = DigestCache(budget=128)


def _assembled_program(workload_name: str) -> Program:
    """The assembled program for ``workload_name``, once per registration."""
    return _PROGRAMS.get_or_build(
        (workload_name, WORKLOAD_REGISTRY.get(workload_name)),
        lambda: get_workload(workload_name).build())


_KEYSTORES = DigestCache(budget=16)


def _keystore(device_id: str) -> SecureKeyStore:
    """The device keystore, derived in-process (never crosses the boundary)."""
    return _KEYSTORES.get_or_build(
        device_id, lambda: SecureKeyStore(device_id=device_id))


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
    try:
        report, failure = prover.attest(challenge), ""
    except MetadataLimitError as error:
        report, failure = None, str(error)
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
        exit_code=run.exit_code if run else 0,
        output=run.output if run else "",
        failure=failure,
    )


def execute_capture_job(
    payload: CaptureJobPayload,
    cpu_config: Optional[CpuConfig] = None,
) -> CaptureResponse:
    """Stage 1: simulate one unique execution and capture its trace.

    Scheme-independent by construction: no measurement session is attached,
    only a :class:`repro.cpu.trace.ControlFlowTrace` capturing the
    control-flow record stream (the exact stream the compiled engine hands a
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
    session (or serves the measurement from the process's replay memo),
    signs ``A || L`` with the in-process device key against the job's nonce,
    and rebuilds the report with the captured execution outputs.  The result
    is byte-identical to :func:`execute_prover_job` on the same execution.

    A payload whose capture is ``None`` (or not replayable) falls back to
    the live single-stage path; ``cpu_config`` is only consumed on that
    fallback.
    """
    job, nonce, capture = payload
    if capture is None or not capture.replayable:
        return execute_prover_job((job, nonce), device_id, cpu_config)

    started = time.perf_counter()
    scheme = get_scheme(job.scheme)
    report, failure, stats = None, "", {}
    try:
        (measurement_bytes, metadata_bytes, metadata, stats), replayed = \
            replay_capture(_assembled_program(job.workload), capture, scheme,
                           job.scheme_config(), job.scheme_config_digest())
    except MetadataLimitError as error:
        replayed, failure = True, str(error)
    else:
        report = AttestationReport(
            program_id=job.workload,
            measurement=measurement_bytes,
            metadata=metadata,
            nonce=nonce,
            signature=sign_report(measurement_bytes + metadata_bytes, nonce,
                                  _keystore(device_id)),
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
        exit_code=capture.exit_code,
        output=capture.output,
        replay_cache_hits=0 if replayed else 1,
        replay_cache_misses=1 if replayed else 0,
        replayed=True,
        failure=failure,
    )
