"""Unit tests for report signing and the key store."""

from repro.attestation.crypto import (
    SecureKeyStore,
    fresh_nonce,
    sign_report,
    verify_signature,
)


class TestKeyStore:
    def test_deterministic_key_per_device_id(self):
        a = SecureKeyStore(device_id="pump-1")
        b = SecureKeyStore(device_id="pump-1")
        c = SecureKeyStore(device_id="pump-2")
        assert a.export_for_verifier() == b.export_for_verifier()
        assert a.export_for_verifier() != c.export_for_verifier()

    def test_random_key_store(self):
        a = SecureKeyStore.with_random_key()
        b = SecureKeyStore.with_random_key()
        assert a.export_for_verifier() != b.export_for_verifier()

    def test_mac_is_deterministic(self):
        store = SecureKeyStore()
        assert store.mac(b"hello") == store.mac(b"hello")
        assert store.mac(b"hello") != store.mac(b"world")

    def test_mac_length(self):
        assert len(SecureKeyStore().mac(b"x")) == 32


class TestSignatures:
    def test_sign_and_verify_roundtrip(self):
        store = SecureKeyStore()
        nonce = fresh_nonce()
        signature = sign_report(b"payload", nonce, store)
        assert verify_signature(b"payload", nonce, signature, store.export_for_verifier())

    def test_wrong_payload_rejected(self):
        store = SecureKeyStore()
        nonce = fresh_nonce()
        signature = sign_report(b"payload", nonce, store)
        assert not verify_signature(b"other", nonce, signature, store.export_for_verifier())

    def test_wrong_nonce_rejected(self):
        store = SecureKeyStore()
        signature = sign_report(b"payload", b"nonce-1", store)
        assert not verify_signature(b"payload", b"nonce-2", signature,
                                    store.export_for_verifier())

    def test_wrong_key_rejected(self):
        store = SecureKeyStore(device_id="a")
        other = SecureKeyStore(device_id="b")
        nonce = fresh_nonce()
        signature = sign_report(b"payload", nonce, store)
        assert not verify_signature(b"payload", nonce, signature,
                                    other.export_for_verifier())

    def test_tampered_signature_rejected(self):
        store = SecureKeyStore()
        nonce = fresh_nonce()
        signature = bytearray(sign_report(b"payload", nonce, store))
        signature[0] ^= 0xFF
        assert not verify_signature(b"payload", nonce, bytes(signature),
                                    store.export_for_verifier())

    def test_fresh_nonces_are_unique(self):
        nonces = {fresh_nonce() for _ in range(64)}
        assert len(nonces) == 64
        assert all(len(nonce) == 16 for nonce in nonces)

    def test_fresh_nonce_custom_length(self):
        assert len(fresh_nonce(32)) == 32
