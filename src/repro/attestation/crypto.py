"""Report signing with a hardware-protected key.

In the paper the attestation report ``R = sign(P || N; sk)`` is produced with
a signing key "stored by P in hardware-protected secure memory, e.g., a
register that is accessible only to LO-FAT" (§3), and the verifier checks it
with the corresponding verification key.  The security argument only requires
that the *software* adversary on the prover cannot forge reports and that the
nonce guarantees freshness.

Substitution (documented in DESIGN.md): instead of an asymmetric signature we
use HMAC-SHA3-256 with a symmetric key provisioned to both the verifier and
the prover's :class:`SecureKeyStore`.  The key store object is held by the
LO-FAT engine model only -- the simulated software has no instruction that can
read it -- which models the hardware protection boundary.  All
unforgeability/freshness checks exercised by the experiments behave
identically to the digital-signature formulation.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field


class KeyAccessError(RuntimeError):
    """Raised when untrusted software attempts to read the signing key."""


@dataclass
class SecureKeyStore:
    """Models the hardware-protected register holding the signing key.

    The raw key is intentionally kept in a private attribute; the only
    sanctioned operations are :meth:`mac` (used by the LO-FAT hardware to sign
    reports) and :meth:`export_for_verifier` (the one-time provisioning step
    that happens at manufacturing, outside the adversary's reach).
    """

    device_id: str = "prover-0"
    _key: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not self._key:
            self._key = hashlib.sha3_256(
                b"lofat-device-key:" + self.device_id.encode("utf-8")
            ).digest()

    @classmethod
    def with_random_key(cls, device_id: str = "prover-0") -> "SecureKeyStore":
        """Provision a key store with a fresh random key."""
        store = cls(device_id=device_id)
        store._key = os.urandom(32)
        return store

    def mac(self, message: bytes) -> bytes:
        """Compute the report MAC (only callable by the attestation hardware)."""
        return hmac.new(self._key, message, hashlib.sha3_256).digest()

    def export_for_verifier(self) -> bytes:
        """One-time provisioning of the verification key (trusted channel)."""
        return self._key

    def __getstate__(self):  # pragma: no cover - defensive
        raise KeyAccessError("the signing key cannot be serialised out of the key store")


def sign_report(payload: bytes, nonce: bytes, keystore: SecureKeyStore) -> bytes:
    """Produce ``R = sign(P || N; sk)`` over the report payload and nonce."""
    return keystore.mac(payload + nonce)


def verify_signature(
    payload: bytes, nonce: bytes, signature: bytes, verification_key: bytes
) -> bool:
    """Verifier-side signature check (constant-time comparison)."""
    expected = hmac.new(verification_key, payload + nonce, hashlib.sha3_256).digest()
    return hmac.compare_digest(expected, signature)


def fresh_nonce(length: int = 16) -> bytes:
    """Generate a fresh random nonce for the challenge."""
    return os.urandom(length)
