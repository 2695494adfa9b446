"""The challenge-response attestation protocol (paper §3, Figure 2).

Scheme-agnostic since the :mod:`repro.schemes` redesign: challenges and
reports carry a ``scheme`` field, and prover/verifier resolve the backend
(LO-FAT, C-FLAT, static, ...) from the scheme registry per challenge.

* :mod:`repro.attestation.crypto` -- the prover's hardware-protected signing
  key and the signature scheme (HMAC-based, see DESIGN.md for the
  substitution rationale).
* :mod:`repro.attestation.protocol` -- the wire messages exchanged between
  verifier and prover (challenge, report), round-tripping via
  ``to_bytes``/``from_bytes``/``to_json``.
* :mod:`repro.attestation.framing` -- the length-prefixed TCP framing and
  version negotiation those messages travel under when the protocol runs
  over a socket (see :mod:`repro.service.server` and ``docs/SERVER.md``).
* :mod:`repro.attestation.prover` -- the prover device: executes the program
  under the challenged scheme and produces the signed report.
* :mod:`repro.attestation.verifier` -- the verifier: admission (nonce,
  bindings, signature), the structure and policy screen, then the
  comparison against a caller-supplied reference or a golden replay.
"""

from repro.attestation.crypto import SecureKeyStore, sign_report, verify_signature
from repro.attestation.framing import FrameType, FramingError, PROTOCOL_VERSIONS
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.attestation.prover import Prover
from repro.attestation.verifier import Verifier
from repro.schemes import VerdictReason, VerificationResult

__all__ = [
    "FrameType",
    "FramingError",
    "PROTOCOL_VERSIONS",
    "SecureKeyStore",
    "sign_report",
    "verify_signature",
    "AttestationChallenge",
    "AttestationReport",
    "Prover",
    "VerificationResult",
    "Verifier",
    "VerdictReason",
]
