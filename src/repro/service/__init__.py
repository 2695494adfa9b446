"""Attestation campaign service.

This package scales the single challenge-response protocol of
:mod:`repro.attestation` into a verifier-side *service* that attests many
executions at once (see ``docs/ARCHITECTURE.md`` for the layer diagram):

* :mod:`repro.service.campaign` -- declarative campaign specs (schemes x
  workloads x configs x attack injections) and their expansion into
  picklable jobs.
* :mod:`repro.service.worker` -- prover-side job execution, the units
  shipped to ``multiprocessing`` workers: capture (stage 1), attest-from-
  trace (stage 2) and the fused live path.
* :mod:`repro.service.tracestore` -- the content-addressed trace store
  behind capture-once / verify-many: execution signatures, captured
  control-flow traces, optional disk spill.
* :mod:`repro.service.database` -- the measurement database caching expected
  ``(A, L)`` keyed by (scheme, program digest, inputs, config digest) and by
  (scheme, trace digest, config digest), which makes repeat verification
  O(lookup) instead of O(re-execution).
* :mod:`repro.service.runner` -- the campaign runner: two-stage
  capture/attest fan-out, central verification, recombined results.
* :mod:`repro.service.presets` -- every benchmark experiment (E1-E9, plus
  the E11 scheme matrix) expressed as a campaign.
* :mod:`repro.service.server` / :mod:`repro.service.client` /
  :mod:`repro.service.loadgen` -- the networked deployment: an asyncio TCP
  verifier daemon speaking the length-prefixed challenge/report framing
  (:mod:`repro.attestation.framing`), the simulated-prover client, and the
  fleet load generator behind ``repro serve`` / ``repro fleet-load``
  (see ``docs/SERVER.md``).

Campaigns are scheme-parameterized (see :mod:`repro.schemes`): one spec can
sweep ``lofat`` x ``cflat`` x ``static`` over the same workloads and attacks,
which is how the paper's LO-FAT-vs-C-FLAT comparison runs end to end.

Quickstart::

    from repro.service import CampaignRunner, experiment_campaign
    result = CampaignRunner().run(experiment_campaign("e5"), workers=4)
    assert result.ok           # benign accepted, all attacks detected
    print(result.summary())
"""

from repro.service.campaign import (
    CampaignJob,
    CampaignSpec,
    CampaignSpecError,
    ConfigVariant,
    WorkloadSelection,
)
from repro.service.database import MeasurementDatabase
from repro.service.presets import (
    adversary_campaign,
    all_experiments,
    experiment_campaign,
    family_campaign,
    full_campaign,
)
from repro.service.runner import CampaignResult, CampaignRunner, JobResult
from repro.service.tracestore import (
    CapturedExecution,
    TraceStore,
    execution_signature,
)
from repro.service.worker import (
    CaptureResponse,
    ProverResponse,
    execute_attest_job,
    execute_capture_job,
    execute_prover_job,
)

# The asyncio server/client pair is imported lazily by the CLI and tests
# (`from repro.service.server import AttestationServer`); importing it here
# would pull asyncio machinery into every campaign worker process for no
# benefit, so only the names that are cheap stay eager.

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "CampaignSpecError",
    "ConfigVariant",
    "WorkloadSelection",
    "MeasurementDatabase",
    "adversary_campaign",
    "all_experiments",
    "experiment_campaign",
    "family_campaign",
    "full_campaign",
    "CampaignResult",
    "CampaignRunner",
    "JobResult",
    "CapturedExecution",
    "TraceStore",
    "execution_signature",
    "CaptureResponse",
    "ProverResponse",
    "execute_attest_job",
    "execute_capture_job",
    "execute_prover_job",
]
