"""Unit tests for the protocol messages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.lofat.metadata import LoopMetadata, LoopRecord, PathRecord
from repro.lofat.path_encoder import PathEncoding


def make_metadata():
    metadata = LoopMetadata()
    metadata.add(LoopRecord(
        entry=0x40, exit_node=0x80, depth=1, iterations=3,
        paths=[PathRecord(PathEncoding(bits="01"), iterations=3, first_seen_index=0)],
    ))
    return metadata


#: Hypothesis strategies for wire-representable field values.
_program_ids = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40)
_inputs = st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=8).map(tuple)
_nonces = st.binary(min_size=0, max_size=64)
_schemes = st.sampled_from(["lofat", "cflat", "static"])


class TestChallenge:
    def test_serialisation_roundtrip_fields(self):
        challenge = AttestationChallenge("prog", (1, 2, 3), b"\xAA" * 16)
        blob = challenge.to_bytes()
        assert b"prog" in blob
        assert blob.endswith(b"\xAA" * 16)

    def test_serialisation_differs_with_inputs(self):
        a = AttestationChallenge("prog", (1,), b"n" * 16)
        b = AttestationChallenge("prog", (2,), b"n" * 16)
        assert a.to_bytes() != b.to_bytes()

    def test_negative_inputs_serialise(self):
        challenge = AttestationChallenge("prog", (-1,), b"n" * 16)
        assert challenge.to_bytes()  # must not raise

    def test_challenge_is_immutable(self):
        challenge = AttestationChallenge("prog", (1,), b"n")
        with pytest.raises(AttributeError):
            challenge.program_id = "other"

    def test_scheme_defaults_to_lofat(self):
        assert AttestationChallenge("prog", (1,), b"n").scheme == "lofat"


class TestChallengeRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(program_id=_program_ids, inputs=_inputs, nonce=_nonces,
           scheme=_schemes)
    def test_bytes_roundtrip_is_byte_exact(self, program_id, inputs, nonce,
                                           scheme):
        challenge = AttestationChallenge(program_id, inputs, nonce, scheme)
        blob = challenge.to_bytes()
        restored = AttestationChallenge.from_bytes(blob)
        assert restored == challenge
        assert restored.to_bytes() == blob

    def test_long_nonce_survives_roundtrip(self):
        """Regression: the 1-byte length field used to truncate nonces >= 256
        bytes silently; the field is now 2 bytes wide."""
        nonce = bytes(range(256)) + b"tail"
        challenge = AttestationChallenge("prog", (1,), nonce)
        restored = AttestationChallenge.from_bytes(challenge.to_bytes())
        assert restored.nonce == nonce

    def test_oversized_nonce_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="nonce"):
            AttestationChallenge("prog", (), b"\x00" * 0x10000)

    def test_truncated_blob_rejected(self):
        blob = AttestationChallenge("prog", (1, 2), b"n" * 16).to_bytes()
        with pytest.raises(ValueError):
            AttestationChallenge.from_bytes(blob[:-1])

    def test_trailing_bytes_rejected(self):
        blob = AttestationChallenge("prog", (1,), b"n" * 16).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            AttestationChallenge.from_bytes(blob + b"\x00")


class TestReport:
    def _report(self):
        return AttestationReport(
            program_id="prog",
            measurement=b"\x11" * 64,
            metadata=make_metadata(),
            nonce=b"\x22" * 16,
            signature=b"\x33" * 32,
            exit_code=0,
            output="5",
        )

    def test_payload_is_measurement_plus_metadata(self):
        report = self._report()
        assert report.payload == report.measurement + report.metadata.to_bytes()

    def test_size_accounts_for_all_parts(self):
        report = self._report()
        assert report.size_bytes == 64 + report.metadata.size_bytes + 32

    def test_describe(self):
        info = self._report().describe()
        assert info["program_id"] == "prog"
        assert info["loop_executions"] == 1
        assert info["report_bytes"] == self._report().size_bytes
        assert info["scheme"] == "lofat"


class TestReportRoundTrip:
    def _report(self, scheme="lofat", metadata=None, exit_code=0):
        return AttestationReport(
            program_id="prog",
            measurement=b"\x11" * (32 if scheme == "static" else 64),
            metadata=make_metadata() if metadata is None else metadata,
            nonce=b"\x22" * 16,
            signature=b"\x33" * 32,
            exit_code=exit_code,
            output="5",
            scheme=scheme,
        )

    @pytest.mark.parametrize("scheme", ["lofat", "cflat", "static"])
    def test_bytes_roundtrip_is_byte_exact(self, scheme):
        metadata = make_metadata() if scheme == "lofat" else LoopMetadata()
        report = self._report(scheme=scheme, metadata=metadata)
        blob = report.to_bytes()
        restored = AttestationReport.from_bytes(blob)
        assert restored.program_id == report.program_id
        assert restored.scheme == scheme
        assert restored.measurement == report.measurement
        assert restored.metadata.to_bytes() == report.metadata.to_bytes()
        assert restored.nonce == report.nonce
        assert restored.signature == report.signature
        assert restored.output == report.output
        assert restored.to_bytes() == blob

    def test_payload_survives_roundtrip(self):
        """The signed payload must be bit-identical after deserialisation,
        otherwise signatures would not verify on the receiving side."""
        report = self._report()
        assert AttestationReport.from_bytes(report.to_bytes()).payload == \
               report.payload

    def test_negative_exit_code_roundtrip(self):
        report = self._report(exit_code=-1)
        assert AttestationReport.from_bytes(report.to_bytes()).exit_code == -1

    def test_malformed_metadata_raises_valueerror_not_indexerror(self):
        """A well-framed report whose metadata block is internally truncated
        must fail with the wire format's ValueError, not crash parsing."""
        report = self._report(metadata=LoopMetadata())
        blob = bytearray(report.to_bytes())
        # The empty metadata block is b'\x00\x00' right after the 4-byte
        # length field; claim one loop record without providing it.
        marker = blob.find(b"\x02\x00\x00\x00\x00\x00")  # len=2, count=0
        assert marker != -1
        blob[marker + 4:marker + 6] = b"\x01\x00"
        with pytest.raises(ValueError):
            AttestationReport.from_bytes(bytes(blob))
        with pytest.raises(ValueError):
            LoopMetadata.from_bytes(b"\x01\x00")

    def test_real_report_roundtrip_all_schemes(self):
        """End-to-end: reports produced by a live prover round-trip and still
        verify after crossing the wire."""
        from repro.attestation import Prover, Verifier
        from repro.workloads import get_workload

        workload = get_workload("figure4_loop")
        program = workload.build()
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key(
            "prover-0", prover.keystore.export_for_verifier())
        for scheme in ("lofat", "cflat", "static"):
            challenge = verifier.challenge(workload.name, workload.inputs,
                                           scheme=scheme)
            challenge_wire = AttestationChallenge.from_bytes(challenge.to_bytes())
            assert challenge_wire == challenge
            report = prover.attest(challenge)
            restored = AttestationReport.from_bytes(report.to_bytes())
            assert restored.to_bytes() == report.to_bytes()
            assert verifier.verify(restored).accepted, scheme
