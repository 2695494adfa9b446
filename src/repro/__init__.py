"""LO-FAT reproduction: hardware control-flow attestation, simulated in Python.

This package reproduces *LO-FAT: Low-Overhead Control Flow ATtestation in
Hardware* (Dessouky et al., DAC 2017) as a trace-based simulation:

* :mod:`repro.isa` / :mod:`repro.cpu` -- an RV32IM assembler and a Pulpino-like
  embedded core model that produces the retired-instruction trace LO-FAT snoops.
* :mod:`repro.cfg` -- the verifier's offline static analysis (CFG, loops).
* :mod:`repro.lofat` -- the paper's contribution: branch filter, loop monitor,
  path encoder, loop counter memory, SHA-3 hash engine, metadata generator and
  the FPGA area model.
* :mod:`repro.schemes` -- the pluggable attestation-scheme API: one protocol
  for the ``lofat``, ``cflat`` and ``static`` backends, plus the registry.
* :mod:`repro.attestation` -- the challenge-response protocol (prover/verifier).
* :mod:`repro.lang` -- the workload compiler: a small structured language
  targeting the ISA, with CFG/loop metadata as a compilation by-product,
  parameterized workload families and ports of the assembly workloads.
* :mod:`repro.attacks` -- the three run-time attack classes of Figure 1.
* :mod:`repro.workloads` -- embedded evaluation workloads (syringe pump, ...).
* :mod:`repro.analysis` -- experiment drivers and report formatting.
* :mod:`repro.service` -- the attestation campaign service: parallel
  multi-prover fan-out, measurement database, experiment presets.

Quickstart::

    from repro import attest_workload
    result, measurement = attest_workload("syringe_pump")
    print(measurement.measurement_hex)

Campaign-scale quickstart::

    from repro.service import CampaignRunner, experiment_campaign
    result = CampaignRunner().run(experiment_campaign("e5"), workers=4)
    assert result.ok
"""

from repro.attestation import Prover, Verifier
from repro.lofat import LoFatConfig, LoFatEngine
from repro.schemes import (
    AttestationScheme,
    SchemeMeasurement,
    all_schemes,
    get_scheme,
)
from repro.service import CampaignRunner, CampaignSpec, MeasurementDatabase
from repro.workloads import Workload, all_workloads, get_workload

__version__ = "1.1.0"


def attest_workload(name: str, inputs=None, config=None, scheme="lofat"):
    """Run a registered workload under a scheme and return (result, measurement).

    ``inputs`` overrides the workload's default input vector; ``scheme`` is
    a registry name (``"lofat"``, ``"cflat"``, ``"static"``) and ``config``
    that scheme's configuration (e.g. a :class:`repro.lofat.LoFatConfig`).
    Every scheme returns its :class:`repro.schemes.SchemeMeasurement`
    through :meth:`repro.schemes.AttestationScheme.measure_execution`.
    """
    workload = get_workload(name)
    inputs = workload.inputs if inputs is None else inputs
    return get_scheme(scheme).measure_execution(workload.build(), inputs,
                                                config=config)


__all__ = [
    "Prover",
    "Verifier",
    "CampaignRunner",
    "CampaignSpec",
    "MeasurementDatabase",
    "AttestationScheme",
    "LoFatConfig",
    "LoFatEngine",
    "SchemeMeasurement",
    "all_schemes",
    "attest_workload",
    "get_scheme",
    "Workload",
    "all_workloads",
    "get_workload",
    "__version__",
]
