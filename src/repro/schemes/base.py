"""The public attestation-scheme contract.

The paper's headline claim is comparative: LO-FAT's parallel hardware
measurement against C-FLAT's software instrumentation and classic static
(binary) attestation.  :class:`AttestationScheme` is the one protocol all
three speak, so the prover, the verifier, the measurement database and the
campaign service are scheme-agnostic: a scheme turns raw parameters into a
validated configuration, opens a :class:`MeasurementSession` that consumes
the retired-instruction stream, and judges a report against an expected
reference.

The contract (see ``docs/SCHEMES.md`` for the how-to-add-a-backend guide):

* ``name`` -- the registry name carried in challenges and reports.
* ``configure(params)`` -- validated, scheme-specific configuration object.
* ``open_session(program, config)`` -- a fresh measurement session; its
  ``observe`` hook is attached as a CPU monitor, and its ``stats`` carry
  the cost of attesting (``processor_stall_cycles``: zero for LO-FAT and
  static attestation, the per-event trampolines for C-FLAT).
* ``verify(report, expected)`` -- compare a report against the expected
  ``(A, serialized L)`` reference.
* ``replay_measurement(program, trace, config)`` -- the verify-many half of
  the capture-once pipeline: measure a stored control-flow trace through a
  fresh session, no CPU in the loop, byte-identical to live execution.

Verdict types (:class:`VerdictReason`, :class:`VerificationResult`) live here
so schemes can return them without importing the verifier.  The one
measurement result type, :class:`SchemeMeasurement`, is defined next to the
LO-FAT engine (:mod:`repro.lofat.engine`) so imports keep flowing from
schemes to the engine, never back.
"""

from __future__ import annotations

import abc
import enum
import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Tuple

from repro.cpu.core import MONITOR_BATCH_SIZE
from repro.lofat.engine import SchemeMeasurement


class SchemeError(ValueError):
    """Base class for attestation-scheme errors."""


class SchemeConfigError(SchemeError):
    """Raised when scheme parameters do not form a valid configuration."""


class VerdictReason(enum.Enum):
    """Why a report was accepted or rejected."""

    ACCEPTED = "accepted"
    UNKNOWN_PROGRAM = "unknown_program"
    UNKNOWN_NONCE = "unknown_nonce"
    NONCE_REUSED = "nonce_reused"
    BAD_SIGNATURE = "bad_signature"
    SCHEME_MISMATCH = "scheme_mismatch"
    PROGRAM_MISMATCH = "program_mismatch"
    MEASUREMENT_MISMATCH = "measurement_mismatch"
    METADATA_MISMATCH = "metadata_mismatch"
    METADATA_CFG_VIOLATION = "metadata_cfg_violation"
    POLICY_VIOLATION = "policy_violation"
    #: The execution's loop metadata ``L`` (the report's, or the
    #: reference's) does not fit its fixed-width encoding.
    METADATA_LIMIT = "metadata_limit"


@dataclass
class VerificationResult:
    """The verifier's verdict on one attestation report."""

    accepted: bool
    reason: VerdictReason
    detail: str = ""

    def __bool__(self) -> bool:
        return self.accepted


class MeasurementSession(abc.ABC):
    """One attested execution in progress.

    A session is attached to the CPU as a retired-instruction monitor
    (``cpu.attach_monitor(session.observe)``), consumes the stream as it
    retires -- so memory stays flat regardless of execution length -- and is
    closed with :meth:`finalize`, which must be idempotent.

    :meth:`observe_batch` receives batches of *control-flow* records only
    (in retirement order): the compiled engine
    (:meth:`repro.cpu.core.Cpu.run_compiled`) and stored-trace replay
    deliver through it and never materialize records for straight-line
    instructions, so it must produce the same measurement from the
    control-flow stream alone.  A session may also implement
    ``observe_block(records, chunk, pairs)`` to absorb a compiled block's
    precomputed (Src, Dest) chunk in one update (C-FLAT and the LO-FAT
    engine do); without it the compiled engine hands every block's records
    to :meth:`observe_batch`.

    Concurrency contract: a session belongs to exactly one execution and
    one thread/task -- it is never shared or reused across executions
    (the attestation server's session pool bounds how many are *open*
    per scheme, it does not share them).  Scheme instances themselves are
    stateless and immutable by contract, and configuration objects are
    read-only once built, so resolving schemes and opening sessions from
    concurrent threads (the server's executor) is safe without locking.
    """

    @abc.abstractmethod
    def observe(self, record) -> None:
        """Observe one retired :class:`repro.cpu.trace.TraceRecord`."""

    @abc.abstractmethod
    def observe_batch(self, records) -> None:
        """Observe a batch of control-flow records, in retirement order."""

    @abc.abstractmethod
    def finalize(self) -> SchemeMeasurement:
        """Close the session and return the measurement (idempotent)."""

    def finish_run(self, instructions: int, cycle: int) -> None:
        """End-of-run sync from the compiled engine (optional override).

        Called once when batched delivery ends, with the total retirement
        count and the final cycle -- information a batch implementation
        cannot recover from control-flow records alone.  The default does
        nothing; sessions tracking per-instruction counters override it.
        """


class AttestationScheme(abc.ABC):
    """One pluggable attestation backend (LO-FAT, C-FLAT, static, ...)."""

    #: Registry name; carried in the ``scheme`` field of challenges/reports.
    name: ClassVar[str] = ""
    #: One-line description for ``repro schemes`` and the docs.
    description: ClassVar[str] = ""
    #: Length in bytes of the measurement this scheme produces.
    measurement_bytes: ClassVar[int] = 64
    #: Whether the scheme can observe run-time control-flow attacks.  Static
    #: attestation cannot ("run-time attacks do not modify the program
    #: binary", paper §2) -- the campaign service uses this to decide whether
    #: an attacked execution is *expected* to be rejected.
    detects_runtime_attacks: ClassVar[bool] = True
    #: Whether :meth:`reference_measurement` needs an execution of the
    #: program.  Static attestation only hashes the image, so the campaign
    #: service skips planning a benign capture for its references.
    reference_requires_execution: ClassVar[bool] = True

    # ------------------------------------------------------- configuration
    @abc.abstractmethod
    def configure(self, params: Optional[Mapping] = None):
        """Build the scheme's validated configuration from raw parameters.

        Raises :class:`SchemeConfigError` on unknown parameter names or
        invalid values, so campaign validation fails before any execution.
        """

    def default_config(self):
        """The scheme's default configuration (``configure({})``)."""
        return self.configure({})

    def config_digest(self, config=None) -> str:
        """Canonical SHA3-256 digest of a configuration (database keys).

        Two configurations with identical parameters hash identically
        regardless of how they were constructed.  Scheme separation comes
        from the database key's explicit scheme element, not from this
        digest -- which keeps the lofat digest identical to the pre-scheme
        releases, so persisted measurement databases keep hitting.
        """
        if config is None:
            config = self.default_config()
        if is_dataclass(config) and not isinstance(config, type):
            canonical = json.dumps(asdict(config), sort_keys=True)
        else:
            canonical = json.dumps(config, sort_keys=True, default=str)
        return hashlib.sha3_256(canonical.encode("utf-8")).hexdigest()

    # ----------------------------------------------------------- measuring
    @abc.abstractmethod
    def open_session(self, program, config=None) -> MeasurementSession:
        """Open a fresh measurement session for one execution of ``program``."""

    def measure_execution(
        self,
        program,
        inputs,
        config=None,
        cpu_config=None,
        hooks: Iterable[Callable] = (),
    ):
        """Run ``program`` with a fresh session attached.

        The one run-and-measure sequence: the prover, the verifier's
        reference, the experiment drivers and the public API all funnel
        through it.  ``hooks`` are called with the :class:`repro.cpu.core.Cpu`
        after the session is attached and before it runs (the prover's
        attack injectors, the adversary generator's corruptions).  Returns
        ``(ExecutionResult, SchemeMeasurement)``.
        """
        from repro.cpu.core import Cpu

        cpu = Cpu(program, inputs=list(inputs), config=cpu_config)
        session = self.open_session(program, config)
        cpu.attach_monitor(session.observe)
        for hook in hooks:
            hook(cpu)
        result = cpu.run()
        return result, session.finalize()

    def replay_measurement(
        self, program, trace, config=None,
    ) -> SchemeMeasurement:
        """Measure a stored trace through a fresh session -- no CPU in the loop.

        The verify-many half of the capture-once pipeline: ``trace`` is a
        :class:`repro.cpu.trace.ControlFlowTrace` (or a full
        :class:`~repro.cpu.trace.ExecutionTrace`, whose control-flow records
        are used) captured from one execution of ``program``; its records
        are streamed into the session's ``observe_batch`` hook in
        retirement order, followed by one ``finish_run`` carrying the stored
        instruction/cycle totals -- the same delivery the compiled engine
        performs live, so the measurement ``A``, the metadata ``L`` and the
        session statistics are byte-identical to live execution.

        Raises :class:`SchemeError` for a capture marked non-replayable (a
        pc hook redirected control flow mid-run, breaking the straight-line
        continuity batched observation reconstructs).
        """
        session = self.open_session(program, config)
        if not getattr(trace, "replayable", True):
            raise SchemeError(
                "trace is not replayable (a pc hook redirected "
                "control flow during capture); re-attest live instead"
            )
        records = trace.control_flow_records
        for start in range(0, len(records), MONITOR_BATCH_SIZE):
            session.observe_batch(records[start:start + MONITOR_BATCH_SIZE])
        session.finish_run(len(trace), trace.cycles)
        return session.finalize()

    def reference_measurement(
        self,
        program,
        inputs,
        config=None,
        cpu_config=None,
    ) -> SchemeMeasurement:
        """The verifier's trusted reference: replay ``program`` and measure.

        Streams records straight into a fresh session without accumulating a
        trace.  Schemes whose measurement does not depend on the execution
        (static attestation) override this to skip the replay entirely.
        """
        from repro.cpu.core import CpuConfig

        run_config = replace(cpu_config or CpuConfig(), collect_trace=False)
        _, measurement = self.measure_execution(
            program, inputs, config=config, cpu_config=run_config,
        )
        return measurement

    # ---------------------------------------------------------- verdict
    def verify(
        self, report, expected: Tuple[bytes, bytes]
    ) -> VerificationResult:
        """Judge ``report`` against the expected ``(A, serialized L)`` pair.

        The default comparison -- byte equality of measurement and metadata
        -- is what all three first-class schemes need; a backend with richer
        semantics (tolerance windows, partial paths) overrides this.
        """
        expected_measurement, expected_metadata = expected
        if expected_measurement != report.measurement:
            return VerificationResult(
                False, VerdictReason.MEASUREMENT_MISMATCH,
                "reported measurement does not match the %s reference"
                % self.name,
            )
        if expected_metadata != report.metadata.to_bytes():
            return VerificationResult(
                False, VerdictReason.METADATA_MISMATCH,
                "reported metadata does not match the %s reference" % self.name,
            )
        return VerificationResult(True, VerdictReason.ACCEPTED)

    # ------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Dictionary view for ``repro schemes`` and campaign reports."""
        return {
            "name": self.name,
            "description": self.description,
            "measurement_bytes": self.measurement_bytes,
            "detects_runtime_attacks": self.detects_runtime_attacks,
        }
