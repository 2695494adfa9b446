"""Static (binary) attestation as an :class:`AttestationScheme` backend.

Static attestation measures the program image at load time and reports the
hash; it establishes that the right binary was loaded but "cannot detect
run-time exploitation techniques, since run-time attacks do not modify the
program binary" (paper §2).  Accordingly ``detects_runtime_attacks`` is
False: the campaign service *expects* attacked executions to be accepted
under this scheme, which is exactly the gap LO-FAT fills (experiment E5/E11).

The measurement is execution-independent, so :meth:`reference_measurement`
skips the replay entirely -- verification is O(hash) no matter the workload
-- and ``reference_requires_execution`` is False, so the capture-once
campaign pipeline never plans a benign capture for a static reference.

The load-time measurement model itself (:class:`StaticAttestation`,
:class:`StaticMeasurement`) lives here too, next to the scheme backend
built on top of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.cpu.core import ExecutionResult
from repro.isa.assembler import Program
from repro.schemes.base import (
    AttestationScheme,
    MeasurementSession,
    SchemeConfigError,
    SchemeCost,
    SchemeMeasurement,
)
from repro.schemes.registry import register_scheme


@dataclass(frozen=True)
class StaticMeasurement:
    """The load-time measurement of a program image."""

    digest: bytes
    code_bytes: int
    data_bytes: int

    @property
    def hex(self) -> str:
        return self.digest.hex()


class StaticAttestation:
    """Binary attestation of the loaded program image."""

    def measure(self, program: Program) -> StaticMeasurement:
        """Hash the program image exactly as a boot-time measurement would."""
        hasher = hashlib.sha3_256()
        hasher.update(program.code_base.to_bytes(4, "little"))
        hasher.update(program.code)
        hasher.update(program.data_base.to_bytes(4, "little"))
        hasher.update(program.data)
        return StaticMeasurement(
            digest=hasher.digest(),
            code_bytes=len(program.code),
            data_bytes=len(program.data),
        )

    def verify(self, program: Program, reported: StaticMeasurement) -> bool:
        """Check a reported load-time measurement against the expected image."""
        return self.measure(program).digest == reported.digest

    def detects_runtime_attack(self, baseline: ExecutionResult,
                               attacked: ExecutionResult,
                               program: Program) -> bool:
        """Whether static attestation notices a run-time control-flow attack.

        The measurement only depends on the program image, which run-time
        attacks leave untouched, so this always returns False when the code
        was not modified -- that is precisely the gap LO-FAT fills.
        """
        return False


@dataclass(frozen=True)
class StaticConfig:
    """Static attestation has no tunable parameters; the type exists so the
    scheme protocol (configure / config_digest) stays uniform."""


class StaticSession(MeasurementSession):
    """Load-time measurement: hash the image, ignore the execution."""

    def __init__(self, program) -> None:
        self.program = program
        self._finalized: Optional[SchemeMeasurement] = None

    def observe(self, record) -> None:
        # The boot-time measurement happened before the first instruction
        # retired; run-time records carry no information for this scheme.
        pass

    def observe_batch(self, records) -> None:
        # Batched delivery carries no information either; declaring the hook
        # keeps static-scheme executions on the compiled engine and makes
        # stored-trace replay a no-op stream.
        pass

    def finalize(self) -> SchemeMeasurement:
        if self._finalized is not None:
            return self._finalized
        measured = StaticAttestation().measure(self.program)
        self._finalized = SchemeMeasurement(
            scheme=StaticScheme.name,
            measurement=measured.digest,
            stats={
                "control_flow_events": 0,
                "pairs_hashed": 0,
                "code_bytes": measured.code_bytes,
                "data_bytes": measured.data_bytes,
                "processor_stall_cycles": 0,
            },
        )
        return self._finalized


@register_scheme
class StaticScheme(AttestationScheme):
    """Conventional static attestation: hash of the loaded code image."""

    name = "static"
    description = ("load-time hash of the program image: detects modified "
                   "binaries, blind to run-time control-flow attacks")
    measurement_bytes = 32
    detects_runtime_attacks = False
    reference_requires_execution = False

    def configure(self, params: Optional[Mapping] = None) -> StaticConfig:
        if isinstance(params, StaticConfig):
            return params
        if params:
            raise SchemeConfigError(
                "static attestation takes no parameters (got: %s)"
                % ", ".join(sorted(params))
            )
        return StaticConfig()

    def open_session(self, program, config=None) -> StaticSession:
        return StaticSession(program)

    def reference_measurement(
        self, program, inputs, config=None, cpu_config=None,
    ) -> SchemeMeasurement:
        # The image hash does not depend on inputs or execution: measure
        # directly instead of replaying the program.
        return StaticSession(program).finalize()

    def cost_model(self, trace, config=None) -> SchemeCost:
        # Measured once at load time; the attested execution itself runs at
        # native speed.
        return SchemeCost(
            scheme=self.name,
            baseline_cycles=trace.cycles,
            attested_cycles=trace.cycles,
            control_flow_events=trace.control_flow_events,
        )
