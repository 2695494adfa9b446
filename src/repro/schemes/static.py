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
The image hash itself is :meth:`StaticSession.finalize`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.schemes.base import (
    AttestationScheme,
    MeasurementSession,
    SchemeConfigError,
    SchemeMeasurement,
)
from repro.schemes.registry import register_scheme


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
        """Hash the program image exactly as a boot-time measurement would."""
        if self._finalized is not None:
            return self._finalized
        program = self.program
        hasher = hashlib.sha3_256()
        hasher.update(program.code_base.to_bytes(4, "little"))
        hasher.update(program.code)
        hasher.update(program.data_base.to_bytes(4, "little"))
        hasher.update(program.data)
        self._finalized = SchemeMeasurement(
            scheme=StaticScheme.name,
            measurement=hasher.digest(),
            stats={
                "control_flow_events": 0,
                "pairs_hashed": 0,
                "code_bytes": len(program.code),
                "data_bytes": len(program.data),
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
