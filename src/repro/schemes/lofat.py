"""LO-FAT as an :class:`repro.schemes.base.AttestationScheme` backend.

:class:`repro.lofat.engine.LoFatEngine` -- the paper's hardware model --
already speaks the session protocol, so :meth:`LoFatScheme.open_session`
returns a fresh engine and the CPU feeds it directly.  Because the engine
observes the pipeline in parallel, its ``processor_stall_cycles`` stat is
**zero**; that is the paper's central performance claim and what E1/E11
compare against C-FLAT.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.lofat.config import LoFatConfig
from repro.lofat.engine import LoFatEngine
from repro.schemes.base import (
    AttestationScheme,
    MeasurementSession,
    SchemeConfigError,
)
from repro.schemes.registry import register_scheme

# The engine implements the session protocol without importing this layer.
MeasurementSession.register(LoFatEngine)


@register_scheme
class LoFatScheme(AttestationScheme):
    """Hardware control-flow attestation (Dessouky et al., DAC 2017)."""

    name = "lofat"
    description = ("parallel hardware measurement: SHA3-512 over (Src, Dest) "
                   "pairs with loop compression, zero processor overhead")
    measurement_bytes = 64
    detects_runtime_attacks = True

    def configure(self, params: Optional[Mapping] = None) -> LoFatConfig:
        if isinstance(params, LoFatConfig):
            return params
        try:
            return LoFatConfig(**dict(params or {}))
        except (TypeError, ValueError) as error:
            raise SchemeConfigError(
                "invalid lofat parameters: %s" % error
            ) from None

    def open_session(self, program, config=None) -> LoFatEngine:
        return LoFatEngine(config)
