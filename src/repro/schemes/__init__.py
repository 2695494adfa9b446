"""Pluggable attestation schemes: one protocol for every backend.

This package defines the public contract every attestation backend speaks
(:class:`AttestationScheme`, :class:`MeasurementSession`) plus the registry
that resolves scheme names carried in challenges, reports, database keys and
campaign specs.  Three backends are first-class:

* ``lofat``  -- the paper's parallel hardware measurement
  (:mod:`repro.schemes.lofat`; its session is a
  :class:`repro.lofat.engine.LoFatEngine`).
* ``cflat``  -- C-FLAT software instrumentation promoted to a full measuring
  scheme (:mod:`repro.schemes.cflat`).
* ``static`` -- classic load-time binary attestation
  (:mod:`repro.schemes.static`).

Adding a backend is a self-registering subclass (see ``docs/SCHEMES.md``)::

    from repro.schemes import AttestationScheme, register_scheme

    @register_scheme
    class MyScheme(AttestationScheme):
        name = "mine"
        ...

Every attested run goes through one sequence,
:meth:`AttestationScheme.measure_execution`, and every scheme reports one
result type, :class:`SchemeMeasurement`.  Quickstart::

    from repro.schemes import get_scheme
    scheme = get_scheme("cflat")
    result, measured = scheme.measure_execution(program, inputs=[5])
"""

from repro.schemes.base import (
    AttestationScheme,
    MeasurementSession,
    SchemeConfigError,
    SchemeError,
    SchemeMeasurement,
    VerdictReason,
    VerificationResult,
)
from repro.schemes.registry import (
    SCHEME_REGISTRY,
    DuplicateSchemeError,
    SchemeNotFoundError,
    SchemeRegistry,
    all_schemes,
    get_scheme,
    register_scheme,
    scheme_names,
)

# Importing the modules populates the registry.
from repro.schemes import cflat, lofat, static  # noqa: F401  (registration)
from repro.schemes.cflat import CFlatCostModel, CFlatScheme, CFlatSession
from repro.schemes.lofat import LoFatScheme
from repro.schemes.static import StaticConfig, StaticScheme, StaticSession

__all__ = [
    "AttestationScheme",
    "MeasurementSession",
    "SchemeConfigError",
    "SchemeError",
    "SchemeMeasurement",
    "VerdictReason",
    "VerificationResult",
    "SCHEME_REGISTRY",
    "SchemeRegistry",
    "SchemeNotFoundError",
    "DuplicateSchemeError",
    "all_schemes",
    "get_scheme",
    "register_scheme",
    "scheme_names",
    "LoFatScheme",
    "CFlatScheme",
    "CFlatSession",
    "CFlatCostModel",
    "StaticScheme",
    "StaticSession",
    "StaticConfig",
]
