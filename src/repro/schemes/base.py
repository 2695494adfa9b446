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
  ``observe`` hook is attached as a CPU monitor.
* ``verify(report, expected)`` -- compare a report against the expected
  ``(A, serialized L)`` reference.
* ``replay_measurement(program, trace, config)`` -- the verify-many half of
  the capture-once pipeline: measure a stored control-flow trace through a
  fresh session, no CPU in the loop, byte-identical to live execution.
* ``cost_model(trace, config)`` -- the scheme's runtime cost applied to an
  execution (the E1/E11 overhead comparisons).

Verdict types (:class:`VerdictReason`, :class:`VerificationResult`) live here
so schemes can return them without importing the verifier; the historical
import path ``repro.attestation.verifier`` re-exports both.
"""

from __future__ import annotations

import abc
import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import ClassVar, Mapping, Optional, Tuple

from repro.cpu.core import MONITOR_BATCH_SIZE
from repro.lofat.metadata import LoopMetadata


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
    NO_REFERENCE = "no_reference_measurement"


@dataclass
class VerificationResult:
    """The verifier's verdict on one attestation report."""

    accepted: bool
    reason: VerdictReason
    detail: str = ""

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class SchemeMeasurement:
    """What one measurement session produced.

    Every scheme reports through the same shape so reports, signatures and
    database entries are uniform: ``measurement`` is the scheme's digest
    (64 bytes for the control-flow hashes, 32 for the static image hash),
    ``metadata`` is the auxiliary data ``L`` (empty for schemes without loop
    compression) and ``stats`` carries the scheme's operational numbers.
    """

    scheme: str
    measurement: bytes
    metadata: LoopMetadata = field(default_factory=LoopMetadata)
    stats: dict = field(default_factory=dict)

    @property
    def measurement_hex(self) -> str:
        return self.measurement.hex()

    @property
    def metadata_bytes(self) -> bytes:
        """The serialised metadata (what signatures and databases store)."""
        return self.metadata.to_bytes()

    @property
    def report_payload(self) -> bytes:
        """The byte string covered by the attestation signature: ``A || L``."""
        return self.measurement + self.metadata.to_bytes()


@dataclass(frozen=True)
class SchemeCost:
    """Runtime cost of attesting one execution under a scheme."""

    scheme: str
    baseline_cycles: int
    attested_cycles: int
    control_flow_events: int = 0

    @property
    def overhead_cycles(self) -> int:
        return self.attested_cycles - self.baseline_cycles

    @property
    def overhead_ratio(self) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.baseline_cycles


class MeasurementSession(abc.ABC):
    """One attested execution in progress.

    A session is attached to the CPU as a retired-instruction monitor
    (``cpu.attach_monitor(session.observe)``), consumes the stream as it
    retires -- so memory stays flat regardless of execution length -- and is
    closed with :meth:`finalize`, which must be idempotent.

    Sessions may additionally implement ``observe_batch(records)``, which
    receives batches of *control-flow* records only (in retirement order).
    When every attached monitor provides it, the CPU runs the compiled
    engine (:meth:`repro.cpu.core.Cpu.run_compiled`) and never
    materializes records for straight-line instructions; a batch
    implementation must therefore produce the same measurement from the
    control-flow stream alone.  All three first-class schemes do.  Sessions
    without the hook run on the per-record :meth:`repro.cpu.core.Cpu.step`
    loop and continue to see every retired instruction.

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
    def finalize(self) -> SchemeMeasurement:
        """Close the session and return the measurement (idempotent)."""

    def finish_run(self, instructions: int, cycle: int) -> None:
        """End-of-run sync from the compiled engine (optional override).

        Called once when batched delivery ends, with the total retirement
        count and the final cycle -- information a batch implementation
        cannot recover from control-flow records alone.  The default does
        nothing; sessions tracking per-instruction counters override it.
        """

    def observe_block(self, records, chunk, pairs) -> None:
        """Per-block delivery from the compiled engine (optional override).

        ``records[:len(pairs)]`` are a compiled block's chain-internal
        forward jumps; ``chunk`` is their precomputed little-endian
        (Src, Dest) byte serialization and ``pairs`` the matching masked
        address pairs.  Any trailing records carry the block terminator.
        The default ignores the precomputed bytes and delegates to
        ``observe_batch`` (the measurement is defined over the records
        alone); sessions that hash the pair stream override this to absorb
        ``chunk`` in one update.
        """
        self.observe_batch(records)  # type: ignore[attr-defined]

    # Allow the session object itself to be used as the monitor callback.
    def __call__(self, record) -> None:
        self.observe(record)


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
    ):
        """Run ``program`` with a fresh session attached.

        The one shared run-and-measure sequence (CLI, public API and the
        verifier's replay all funnel through it); returns
        ``(ExecutionResult, SchemeMeasurement)``.
        """
        from repro.cpu.core import Cpu

        cpu = Cpu(program, inputs=list(inputs), config=cpu_config)
        session = self.open_session(program, config)
        cpu.attach_monitor(session.observe)
        result = cpu.run()
        return result, session.finalize()

    def replay_measurement(
        self,
        program,
        trace,
        config=None,
        batch_size: int = MONITOR_BATCH_SIZE,
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

        Raises :class:`SchemeError` for a session without batched
        observation (per-record replay of a control-flow-only trace would
        miss the straight-line instructions its loop tracking needs) and for
        a capture marked non-replayable (a pc hook redirected
        control flow mid-run, breaking the straight-line continuity batched
        observation reconstructs).
        """
        session = self.open_session(program, config)
        observe_batch = getattr(session, "observe_batch", None)
        if observe_batch is None:
            raise SchemeError(
                "%s session does not support batched observation; a "
                "control-flow trace cannot be replayed through it" % self.name
            )
        if not getattr(trace, "replayable", True):
            raise SchemeError(
                "trace is not replayable (a pc hook redirected "
                "control flow during capture); re-attest live instead"
            )
        records = trace.control_flow_records
        step = max(1, batch_size)
        for start in range(0, len(records), step):
            observe_batch(records[start:start + step])
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

    # -------------------------------------------------------------- cost
    @abc.abstractmethod
    def cost_model(self, trace, config=None) -> SchemeCost:
        """The scheme's runtime cost for one execution.

        ``trace`` is an :class:`repro.cpu.trace.ExecutionTrace` or
        :class:`repro.cpu.trace.StreamingTrace` -- only the summary counters
        (``cycles``, ``control_flow_events``) are consulted, so streamed
        executions work too.
        """

    # ------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Dictionary view for ``repro schemes`` and campaign reports."""
        return {
            "name": self.name,
            "description": self.description,
            "measurement_bytes": self.measurement_bytes,
            "detects_runtime_attacks": self.detects_runtime_attacks,
        }
