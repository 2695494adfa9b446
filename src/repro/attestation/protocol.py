"""Wire messages of the attestation protocol (paper Figure 2).

The verifier sends a challenge ``(id_S, i, N)`` naming the attested program,
supplying the program input ``i`` and a fresh nonce ``N``.  The prover runs
``S`` under the requested attestation scheme and answers with the measured
path ``P = (A, L)`` and the report signature ``R = sign(P || N; sk)``.

Both messages carry a ``scheme`` field (the registry name of the attestation
backend, see :mod:`repro.schemes`) so one wire format serves LO-FAT, C-FLAT
and static attestation alike, and both round-trip bidirectionally:
``to_bytes`` / ``from_bytes`` are byte-exact inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.lofat.metadata import LazyLoopMetadata, LoopMetadata

#: Hard caps of the wire format's length fields.
MAX_NONCE_BYTES = 0xFFFF
MAX_PROGRAM_ID_BYTES = 0xFFFF
MAX_SCHEME_BYTES = 0xFF


def _read_block(blob: bytes, offset: int, width: int) -> Tuple[bytes, int]:
    """Read a length-prefixed block (``width``-byte little-endian length)."""
    length = int.from_bytes(blob[offset:offset + width], "little")
    offset += width
    block = blob[offset:offset + length]
    if len(block) != length:
        raise ValueError("truncated message: expected %d more bytes" % length)
    return block, offset + length


@dataclass(frozen=True)
class AttestationChallenge:
    """Verifier -> prover: attest ``program_id`` on ``inputs`` under ``scheme``."""

    program_id: str
    inputs: Tuple[int, ...]
    nonce: bytes
    scheme: str = "lofat"

    def __post_init__(self) -> None:
        if len(self.nonce) > MAX_NONCE_BYTES:
            raise ValueError(
                "nonce of %d bytes exceeds the wire format's %d-byte limit"
                % (len(self.nonce), MAX_NONCE_BYTES)
            )

    def to_bytes(self) -> bytes:
        """Canonical serialisation (transcripts, logging, tests)."""
        scheme = self.scheme.encode("utf-8")
        if len(scheme) > MAX_SCHEME_BYTES:
            raise ValueError("scheme name too long for the wire format")
        program = self.program_id.encode("utf-8")
        if len(program) > MAX_PROGRAM_ID_BYTES:
            raise ValueError("program id too long for the wire format")
        blob = len(scheme).to_bytes(1, "little") + scheme
        blob += len(program).to_bytes(2, "little") + program
        blob += len(self.inputs).to_bytes(2, "little")
        for value in self.inputs:
            blob += (value & 0xFFFFFFFF).to_bytes(4, "little")
        blob += len(self.nonce).to_bytes(2, "little") + self.nonce
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AttestationChallenge":
        """Deserialise (inverse of :meth:`to_bytes`; byte-exact round trip).

        Input values come back as the unsigned 32-bit words that were put on
        the wire.
        """
        scheme, offset = _read_block(blob, 0, 1)
        program, offset = _read_block(blob, offset, 2)
        count = int.from_bytes(blob[offset:offset + 2], "little")
        offset += 2
        inputs = []
        for _ in range(count):
            word = blob[offset:offset + 4]
            if len(word) != 4:
                raise ValueError("truncated challenge inputs")
            inputs.append(int.from_bytes(word, "little"))
            offset += 4
        nonce, offset = _read_block(blob, offset, 2)
        if offset != len(blob):
            raise ValueError("trailing bytes after challenge")
        return cls(
            program_id=program.decode("utf-8"),
            inputs=tuple(inputs),
            nonce=nonce,
            scheme=scheme.decode("utf-8"),
        )


@dataclass
class AttestationReport:
    """Prover -> verifier: the measured path ``P = (A, L)`` plus signature ``R``.

    Attributes:
        program_id: identifier of the attested program (echoed from the
            challenge).
        measurement: the scheme's cumulative measurement ``A`` (64 bytes for
            the control-flow hashes, 32 for the static image hash).
        metadata: the auxiliary metadata ``L`` (empty for schemes without
            loop compression).
        nonce: the challenge nonce the report responds to.
        signature: ``R = sign(A || L || N; sk)``.
        exit_code: program exit status (reported for operational visibility;
            not part of the signed payload in the paper's protocol).
        output: program output (idem).
        scheme: registry name of the scheme that produced the measurement.
    """

    program_id: str
    measurement: bytes
    metadata: LoopMetadata
    nonce: bytes
    signature: bytes
    exit_code: int = 0
    output: str = ""
    scheme: str = "lofat"

    @property
    def payload(self) -> bytes:
        """The byte string covered by the signature: ``A || L``."""
        return self.measurement + self.metadata.to_bytes()

    @property
    def size_bytes(self) -> int:
        """Approximate report size on the wire (measurement + L + signature)."""
        return len(self.measurement) + self.metadata.size_bytes + len(self.signature)

    def to_bytes(self) -> bytes:
        """Canonical serialisation (byte-exact inverse: :meth:`from_bytes`)."""
        scheme = self.scheme.encode("utf-8")
        if len(scheme) > MAX_SCHEME_BYTES:
            raise ValueError("scheme name too long for the wire format")
        program = self.program_id.encode("utf-8")
        if len(program) > MAX_PROGRAM_ID_BYTES:
            raise ValueError("program id too long for the wire format")
        if len(self.nonce) > MAX_NONCE_BYTES:
            raise ValueError("nonce too long for the wire format")
        metadata = self.metadata.to_bytes()
        output = self.output.encode("utf-8")
        blob = len(scheme).to_bytes(1, "little") + scheme
        blob += len(program).to_bytes(2, "little") + program
        blob += len(self.measurement).to_bytes(2, "little") + self.measurement
        blob += len(metadata).to_bytes(4, "little") + metadata
        blob += len(self.nonce).to_bytes(2, "little") + self.nonce
        blob += len(self.signature).to_bytes(2, "little") + self.signature
        blob += (self.exit_code & 0xFFFFFFFF).to_bytes(4, "little")
        blob += len(output).to_bytes(4, "little") + output
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AttestationReport":
        """Deserialise (inverse of :meth:`to_bytes`)."""
        scheme, offset = _read_block(blob, 0, 1)
        program, offset = _read_block(blob, offset, 2)
        measurement, offset = _read_block(blob, offset, 2)
        metadata_bytes, offset = _read_block(blob, offset, 4)
        # Framing-validated now (malformed metadata raises here, as the wire
        # contract promises); the record objects materialise only if a
        # consumer iterates them -- the verifier's accept path never does.
        metadata = LazyLoopMetadata(metadata_bytes)
        nonce, offset = _read_block(blob, offset, 2)
        signature, offset = _read_block(blob, offset, 2)
        exit_word = int.from_bytes(blob[offset:offset + 4], "little")
        exit_code = exit_word - (1 << 32) if exit_word >= (1 << 31) else exit_word
        offset += 4
        output, offset = _read_block(blob, offset, 4)
        if offset != len(blob):
            raise ValueError("trailing bytes after report")
        return cls(
            program_id=program.decode("utf-8"),
            measurement=measurement,
            metadata=metadata,
            nonce=nonce,
            signature=signature,
            exit_code=exit_code,
            output=output.decode("utf-8"),
            scheme=scheme.decode("utf-8"),
        )

    def describe(self) -> dict:
        """Summary dictionary used by reports and the protocol experiment."""
        return {
            "scheme": self.scheme,
            "program_id": self.program_id,
            "measurement": self.measurement.hex()[:32] + "...",
            "metadata_bytes": self.metadata.size_bytes,
            "loop_executions": len(self.metadata),
            "report_bytes": self.size_bytes,
            "exit_code": self.exit_code,
        }
