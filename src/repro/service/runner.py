"""The attestation campaign runner.

:class:`CampaignRunner` is the verifier-side service loop: it expands a
:class:`repro.service.campaign.CampaignSpec` into jobs, produces one signed
report per job, then verifies every report centrally -- one verifier per
(attestation scheme, configuration variant) sweep point, all of them backed
by a shared :class:`repro.service.database.MeasurementDatabase`.

Report production is a two-stage pipeline (the capture-once / verify-many
decomposition; ``pipeline="live"`` keeps the historical fused path for
comparison):

* **Stage 1 -- capture.** Jobs are deduplicated by *execution signature*
  (program build, inputs, attack, CPU config -- scheme-independent, see
  :mod:`repro.service.tracestore`); each unique signature is simulated once
  (:func:`repro.service.worker.execute_capture_job`) and its compact
  control-flow trace lands in the runner's content-addressed
  :class:`~repro.service.tracestore.TraceStore`.  An N-scheme x M-config
  sweep therefore pays for one CPU simulation per distinct execution, not
  N x M.  When database verification needs execution-dependent references,
  the benign counterparts of attacked executions are captured in the same
  pass.
* **Stage 2 -- attest.** Every job replays its stored trace through its
  scheme session (:func:`repro.service.worker.execute_attest_job`) -- no
  CPU in the loop -- and signs the result; reports are byte-identical to
  live execution (pinned by ``tests/test_trace_replay_equivalence.py``).
  Database-mode reference misses replay the stored *benign* capture too,
  keyed in the measurement database by trace digest.

The decomposition mirrors the deployment the paper assumes: many independent
prover devices execute in parallel (they share nothing but their program
images), while the verifier is a single service whose per-report cost is
pushed from O(re-execution) to O(lookup) by the measurement database.  Both
stages are embarrassingly parallel, so the recombination step is a simple
ordered zip of jobs and responses; parallel campaigns are result-identical
to sequential ones by construction, and the test suite asserts it.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attestation.crypto import SecureKeyStore
from repro.attestation.verifier import Verifier
from repro.cpu.core import CpuConfig
from repro.isa.assembler import Program
from repro.schemes import get_scheme
from repro.service.campaign import CampaignJob, CampaignSpec
from repro.service.database import MeasurementDatabase
from repro.service.tracestore import (
    TraceStore,
    cpu_config_digest,
    execution_signature,
    workload_build_signature,
)
from repro.service.worker import (
    CaptureResponse,
    ProverResponse,
    _assembled_program,
    execute_attest_job,
    execute_capture_job,
    execute_prover_job,
)
from repro.workloads import get_workload


@dataclass
class JobResult:
    """The verifier's recombined record of one campaign job."""

    job: CampaignJob
    accepted: bool
    reason: str
    detail: str
    measurement_hex: str
    metadata_hex: str
    output: str
    exit_code: int
    instructions: int
    cycles: int
    #: Whether the reference measurement came from the database (None when
    #: the verify mode does not consult it).
    cache_hit: Optional[bool]
    prover_seconds: float
    #: Whether the report was produced by replaying a stored trace (False
    #: for live executions).
    replayed: bool = False

    @property
    def detected(self) -> bool:
        """True when the report was rejected (an attack was caught)."""
        return not self.accepted

    @property
    def ok(self) -> bool:
        """Job-level success: benign runs accept, attacked runs reject."""
        if self.job.expects_detection:
            return not self.accepted
        return self.accepted

    @property
    def outcome(self) -> str:
        """Semantic label of the verdict against the job's expectation.

        ``benign_pass`` / ``false_reject`` for benign jobs; for attacked
        jobs ``detected`` / ``missed`` when the scheme claims the attack,
        ``expected_miss`` / ``unexpected_reject`` when it does not (static
        scheme, or an attack invisible to control-flow measurement).
        """
        if self.job.attack is None:
            return "benign_pass" if self.accepted else "false_reject"
        if self.job.expects_detection:
            return "detected" if not self.accepted else "missed"
        return "expected_miss" if self.accepted else "unexpected_reject"

    def identity(self) -> tuple:
        """The comparison key used to check parallel == sequential results.

        Also pipeline-independent by design: a two-stage (capture/replay)
        campaign must recombine to the same identities as a live one.
        """
        return (
            self.job.job_id,
            self.accepted,
            self.reason,
            self.measurement_hex,
            self.metadata_hex,
            self.output,
            self.exit_code,
            self.instructions,
            self.cycles,
        )

    def as_row(self) -> dict:
        """Row dictionary for :func:`repro.analysis.report.format_table`."""
        return {
            "job": self.job.job_id,
            "scheme": self.job.scheme,
            "verdict": "ACCEPTED" if self.accepted else "REJECTED",
            "reason": self.reason,
            "ok": self.ok,
            "outcome": self.outcome,
            "cache": ("hit" if self.cache_hit else "miss")
                     if self.cache_hit is not None else "-",
            "source": "replay" if self.replayed else "live",
            "instructions": self.instructions,
            "cycles": self.cycles,
        }


@dataclass
class CampaignResult:
    """Everything one campaign run produced, plus service-level metrics."""

    spec_name: str
    verify_mode: str
    workers: int
    #: The execution engine of the prover-side simulations ("legacy" or
    #: "compiled").
    engine: str = "compiled"
    #: Report-production pipeline: "capture" (two-stage, the default) or
    #: "live" (fused capture+attest per job).
    pipeline: str = "capture"
    results: List[JobResult] = field(default_factory=list)
    #: Wall-clock seconds of the parallel prover fan-out phase (both stages).
    prover_seconds: float = 0.0
    #: Wall-clock seconds of stage 1 (unique-execution capture).
    capture_seconds: float = 0.0
    #: Wall-clock seconds of stage 2 (trace replay + signing).
    attest_seconds: float = 0.0
    #: Wall-clock seconds of the central verification phase.
    verify_seconds: float = 0.0
    total_seconds: float = 0.0
    database_stats: dict = field(default_factory=dict)
    #: Capture-stage accounting: jobs vs unique executions vs simulations
    #: actually run (see :meth:`CampaignRunner._run_two_stage`).
    capture_stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when every job behaved as expected (accept/detect)."""
        return all(result.ok for result in self.results)

    @property
    def accepted_count(self) -> int:
        return sum(1 for result in self.results if result.accepted)

    @property
    def detected_count(self) -> int:
        return sum(
            1 for result in self.results
            if result.job.expects_detection and result.detected
        )

    @property
    def failures(self) -> List[JobResult]:
        return [result for result in self.results if not result.ok]

    @property
    def jobs_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return len(self.results) / self.total_seconds

    def identities(self) -> List[tuple]:
        """Per-job comparison keys (order-sensitive)."""
        return [result.identity() for result in self.results]

    def summary(self) -> dict:
        attacks = sum(1 for r in self.results if r.job.expects_detection)
        expected_misses = sum(
            1 for r in self.results if r.outcome == "expected_miss"
        )
        return {
            "campaign": self.spec_name,
            "verify_mode": self.verify_mode,
            "workers": self.workers,
            "engine": self.engine,
            "pipeline": self.pipeline,
            "jobs": len(self.results),
            "ok": self.ok,
            "accepted": self.accepted_count,
            "attacks_detected": "%d/%d" % (self.detected_count, attacks),
            "expected_misses": expected_misses,
            "prover_seconds": self.prover_seconds,
            "capture_seconds": self.capture_seconds,
            "attest_seconds": self.attest_seconds,
            "verify_seconds": self.verify_seconds,
            "total_seconds": self.total_seconds,
            "jobs_per_second": self.jobs_per_second,
            "database": dict(self.database_stats),
            "capture": dict(self.capture_stats),
        }


def _worker_context():
    """Pick the multiprocessing start method (fork where available)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class CampaignRunner:
    """Executes attestation campaigns, sequentially or across processes."""

    def __init__(
        self,
        database: Optional[MeasurementDatabase] = None,
        device_id: str = "prover-0",
        cpu_config: Optional[CpuConfig] = None,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        self.database = database if database is not None else MeasurementDatabase()
        self.device_id = device_id
        self.cpu_config = cpu_config
        #: The content-addressed capture store shared across this runner's
        #: campaigns; pass a directory-backed store to persist captures
        #: (``repro trace capture`` / ``--trace-dir``).
        self.trace_store = trace_store if trace_store is not None else TraceStore()

    # ----------------------------------------------------------- execution
    def run(
        self, spec: CampaignSpec, workers: int = 1, pipeline: str = "capture"
    ) -> CampaignResult:
        """Run ``spec`` end to end and return the recombined results.

        ``workers <= 1`` executes the prover-side stages inline
        (sequential); ``workers > 1`` fans them out over a process pool.
        ``pipeline`` selects report production: ``"capture"`` (default)
        dedupes jobs by execution signature, simulates each unique execution
        once and replays stored traces per job; ``"live"`` runs one fused
        simulate+measure execution per job (the pre-capture behaviour, kept
        as the equivalence/benchmark baseline).  Verification always happens
        centrally, in job order, so every mode produces identical results.
        """
        if pipeline not in ("capture", "live"):
            raise ValueError(
                "unknown pipeline %r (expected 'capture' or 'live')" % pipeline
            )
        jobs = spec.expand()
        cpu_config = self.cpu_config
        started_total = time.perf_counter()
        database_counters = self.database.counters()

        verifiers, programs = self._provision(jobs, cpu_config)
        payloads = [
            (job, verifiers[(job.scheme, job.config_name)]
                  .challenge(job.workload, job.inputs, scheme=job.scheme).nonce)
            for job in jobs
        ]

        capture_seconds = attest_seconds = 0.0
        capture_stats: dict = {}
        reference_captures: Dict[str, object] = {}
        started_prover = time.perf_counter()
        if pipeline == "live":
            responses = self._execute_provers(payloads, workers, cpu_config)
        else:
            (responses, capture_seconds, attest_seconds,
             capture_stats, reference_captures) = self._run_two_stage(
                spec, jobs, payloads, workers, cpu_config)
        prover_seconds = time.perf_counter() - started_prover

        started_verify = time.perf_counter()
        results = [
            self._verify(spec, job, response, verifiers, programs,
                         reference_captures, cpu_config)
            for job, response in zip(jobs, responses)
        ]
        verify_seconds = time.perf_counter() - started_verify

        database_stats = self.database.stats_since(database_counters)
        # Cross-process cache accounting: stage-2 replay caches live in the
        # worker processes, so their hit/miss counters only exist on the
        # responses -- aggregate them here instead of reporting only the
        # parent database's numbers.
        database_stats["worker_replay_hits"] = sum(
            r.replay_cache_hits for r in responses)
        database_stats["worker_replay_misses"] = sum(
            r.replay_cache_misses for r in responses)

        return CampaignResult(
            spec_name=spec.name,
            verify_mode=spec.verify_mode,
            workers=max(1, workers),
            engine=(cpu_config or CpuConfig()).engine,
            pipeline=pipeline,
            results=results,
            prover_seconds=prover_seconds,
            capture_seconds=capture_seconds,
            attest_seconds=attest_seconds,
            verify_seconds=verify_seconds,
            total_seconds=time.perf_counter() - started_total,
            database_stats=database_stats,
            capture_stats=capture_stats,
        )

    def capture(self, spec: CampaignSpec, workers: int = 1) -> dict:
        """Run only stage 1 of ``spec``: populate the trace store.

        Captures every unique execution signature the campaign (and its
        database-mode references) would need, without attesting or
        verifying anything.  Returns the capture statistics dictionary; the
        captures land in :attr:`trace_store` (persist them by constructing
        the runner with a directory-backed store).
        """
        jobs = spec.expand()
        signatures, ref_signatures = self._plan_signatures(spec, jobs)
        started = time.perf_counter()
        stats = self._capture_unique(
            jobs, signatures, ref_signatures, workers, self.cpu_config)
        stats["capture_seconds"] = time.perf_counter() - started
        stats["store"] = self.trace_store.stats()
        return stats

    # ------------------------------------------------------------ plumbing
    def _plan_signatures(
        self, spec: CampaignSpec, jobs: Sequence[CampaignJob]
    ) -> Tuple[List[str], List[Optional[str]]]:
        """Execution signatures per job, plus per-job reference signatures.

        The reference signature is the *benign* counterpart of the job's
        execution (attack stripped) -- what a database-mode verification
        replays -- or None when the verify mode never consults the database
        or the scheme's reference needs no execution (static).
        """
        cpu_digest = cpu_config_digest(self.cpu_config)
        build_signatures: Dict[str, str] = {}

        def signature(workload: str, inputs, attack) -> str:
            build = build_signatures.get(workload)
            if build is None:
                build = workload_build_signature(get_workload(workload))
                build_signatures[workload] = build
            return execution_signature(
                workload, inputs, attack,
                build_signature=build, cpu_digest=cpu_digest,
            )

        signatures = [
            signature(job.workload, job.inputs, job.attack) for job in jobs
        ]
        ref_signatures: List[Optional[str]] = []
        for job, job_signature in zip(jobs, signatures):
            if (spec.verify_mode != "database"
                    or not get_scheme(job.scheme).reference_requires_execution):
                ref_signatures.append(None)
            elif job.attack is None:
                ref_signatures.append(job_signature)
            else:
                ref_signatures.append(
                    signature(job.workload, job.inputs, None))
        return signatures, ref_signatures

    def _capture_unique(
        self,
        jobs: Sequence[CampaignJob],
        signatures: Sequence[str],
        ref_signatures: Sequence[Optional[str]],
        workers: int,
        cpu_config: Optional[CpuConfig] = None,
    ) -> dict:
        """Stage 1: simulate every signature the campaign needs exactly once."""
        plan: List[tuple] = []
        planned = set()
        store_hits = 0
        for job, job_signature, ref_signature in zip(
                jobs, signatures, ref_signatures):
            for sig, attack in ((job_signature, job.attack),
                                (ref_signature, None)):
                if sig is None or sig in planned:
                    continue
                if sig in self.trace_store:
                    planned.add(sig)
                    store_hits += 1
                    continue
                planned.add(sig)
                plan.append((sig, job.workload, job.inputs, attack))

        responses = self._execute_captures(plan, workers, cpu_config)
        for response in responses:
            self.trace_store.put_bytes(
                response.signature,
                response.trace_bytes,
                exit_code=response.exit_code,
                output=response.output,
                instructions=response.instructions,
                cycles=response.cycles,
                replayable=response.replayable,
                flush=False,
            )
        self.trace_store.flush()
        job_signatures = set(signatures)
        return {
            "jobs": len(jobs),
            "unique_executions": len(job_signatures),
            "deduped_jobs": len(jobs) - len(job_signatures),
            "reference_executions": len(planned - job_signatures),
            "captured": len(plan),
            "store_hits": store_hits,
            "simulated_seconds": sum(r.capture_seconds for r in responses),
        }

    def _run_two_stage(
        self,
        spec: CampaignSpec,
        jobs: Sequence[CampaignJob],
        payloads: Sequence[tuple],
        workers: int,
        cpu_config: Optional[CpuConfig] = None,
    ):
        """Capture unique executions, then attest every job from the store."""
        signatures, ref_signatures = self._plan_signatures(spec, jobs)

        started_capture = time.perf_counter()
        capture_stats = self._capture_unique(
            jobs, signatures, ref_signatures, workers, cpu_config)
        capture_seconds = time.perf_counter() - started_capture

        started_attest = time.perf_counter()
        attest_payloads = []
        for (job, nonce), job_signature in zip(payloads, signatures):
            capture = self.trace_store.get(job_signature)
            if capture is not None and not capture.replayable:
                capture = None  # live fallback in the worker
            attest_payloads.append((job, nonce, capture))
        responses = self._execute_attests(attest_payloads, workers, cpu_config)
        attest_seconds = time.perf_counter() - started_attest

        capture_stats["replayed_jobs"] = sum(1 for r in responses if r.replayed)
        capture_stats["live_jobs"] = sum(
            1 for r in responses if not r.replayed)

        reference_captures: Dict[str, object] = {}
        for job, ref_signature in zip(jobs, ref_signatures):
            if ref_signature is not None and job.job_id not in reference_captures:
                reference_captures[job.job_id] = self.trace_store.get(
                    ref_signature)
        return (responses, capture_seconds, attest_seconds, capture_stats,
                reference_captures)

    def _provision(
        self,
        jobs: Sequence[CampaignJob],
        cpu_config: Optional[CpuConfig] = None,
    ) -> Tuple[Dict[Tuple[str, str], Verifier], Dict[str, Program]]:
        """Build one verifier per (scheme, config variant) and register programs.

        Program analyses (CFG, loops) are shared across verifiers through
        the process-wide knowledge cache, so provisioning N sweep points
        costs one analysis per distinct binary, not N.
        """
        verification_key = SecureKeyStore(
            device_id=self.device_id
        ).export_for_verifier()
        verifiers: Dict[Tuple[str, str], Verifier] = {}
        programs: Dict[str, Program] = {}
        registered = set()
        for job in jobs:
            if job.workload not in programs:
                # Shares the process-wide build-signature-keyed assembly
                # cache with the worker side: repeat campaigns (and the
                # capture planner) never re-assemble an unchanged workload.
                programs[job.workload] = _assembled_program(job.workload)
            key = (job.scheme, job.config_name)
            verifier = verifiers.get(key)
            if verifier is None:
                verifier = Verifier(cpu_config=cpu_config or self.cpu_config)
                verifier.configure_scheme(job.scheme, job.scheme_config())
                verifier.register_device_key(self.device_id, verification_key)
                verifiers[key] = verifier
            if (key, job.workload) not in registered:
                verifier.register_program(job.workload, programs[job.workload])
                registered.add((key, job.workload))
        return verifiers, programs

    def _execute_provers(
        self, payloads: Sequence[tuple], workers: int,
        cpu_config: Optional[CpuConfig] = None,
    ) -> List[ProverResponse]:
        execute = partial(
            execute_prover_job,
            device_id=self.device_id,
            cpu_config=cpu_config or self.cpu_config,
        )
        return self._map(execute, payloads, workers)

    def _execute_captures(
        self, payloads: Sequence[tuple], workers: int,
        cpu_config: Optional[CpuConfig] = None,
    ) -> List[CaptureResponse]:
        execute = partial(
            execute_capture_job, cpu_config=cpu_config or self.cpu_config)
        return self._map(execute, payloads, workers)

    def _execute_attests(
        self, payloads: Sequence[tuple], workers: int,
        cpu_config: Optional[CpuConfig] = None,
    ) -> List[ProverResponse]:
        execute = partial(
            execute_attest_job,
            device_id=self.device_id,
            cpu_config=cpu_config or self.cpu_config,
        )
        return self._map(execute, payloads, workers)

    @staticmethod
    def _map(execute, payloads: Sequence[tuple], workers: int) -> list:
        if workers <= 1 or len(payloads) <= 1:
            return [execute(payload) for payload in payloads]
        context = _worker_context()
        pool_size = min(workers, len(payloads))
        chunksize = max(1, len(payloads) // (pool_size * 4))
        with context.Pool(processes=pool_size) as pool:
            return pool.map(execute, payloads, chunksize)

    def _verify(
        self,
        spec: CampaignSpec,
        job: CampaignJob,
        response: ProverResponse,
        verifiers: Dict[Tuple[str, str], Verifier],
        programs: Dict[str, Program],
        reference_captures: Optional[Dict[str, object]] = None,
        cpu_config: Optional[CpuConfig] = None,
    ) -> JobResult:
        verifier = verifiers[(job.scheme, job.config_name)]
        cache_hit: Optional[bool] = None
        expected = None
        if spec.verify_mode == "database":
            capture = (reference_captures or {}).get(job.job_id)
            measurement, metadata_bytes, cache_hit = self.database.lookup_or_compute(
                programs[job.workload],
                job.inputs,
                job.scheme_config(),
                cpu_config=cpu_config or self.cpu_config,
                scheme=job.scheme,
                capture=capture,
                config_digest=job.scheme_config_digest(),
            )
            expected = (measurement, metadata_bytes)
        verdict = verifier.verify(
            response.report, device_id=self.device_id, mode=spec.verify_mode,
            expected=expected,
        )
        report = response.report
        return JobResult(
            job=job,
            accepted=verdict.accepted,
            reason=verdict.reason.value,
            detail=verdict.detail,
            measurement_hex=report.measurement.hex(),
            metadata_hex=report.metadata.to_bytes().hex(),
            output=report.output,
            exit_code=report.exit_code,
            instructions=response.instructions,
            cycles=response.cycles,
            cache_hit=cache_hit,
            prover_seconds=response.prover_seconds,
            replayed=response.replayed,
        )
