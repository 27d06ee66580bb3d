"""Tests for the AEAD model: confidentiality, integrity, key handling."""

from dataclasses import fields

import pytest

from repro.errors import CryptoError
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest, TimeResponse
from repro.net.crypto import (
    KEY_BYTES,
    NONCE_BYTES,
    PAD_BLOCK_BYTES,
    SecureChannelKey,
    TAG_BYTES,
    derive_key,
)


@pytest.fixture
def key():
    return SecureChannelKey.between("alice", "bob")


class TestKeyDerivation:
    def test_deterministic(self):
        assert derive_key("a", "b") == derive_key("a", "b")

    def test_label_sensitive(self):
        assert derive_key("a", "b") != derive_key("a", "c")
        assert derive_key("a", "b") != derive_key("ab")

    def test_key_length(self):
        assert len(derive_key("x")) == KEY_BYTES

    def test_between_is_order_independent(self):
        a = SecureChannelKey.between("alice", "bob")
        b = SecureChannelKey.between("bob", "alice")
        assert b.open(a.seal("hello")) == "hello"

    def test_no_labels_rejected(self):
        with pytest.raises(CryptoError):
            derive_key()

    def test_wrong_key_length_rejected(self):
        with pytest.raises(CryptoError):
            SecureChannelKey(b"short")


class TestRoundTrip:
    def test_seal_open_round_trip(self, key):
        message = {"kind": "time-request", "sleep_ns": 1_000_000_000}
        assert key.open(key.seal(message)) == message

    def test_arbitrary_python_objects(self, key):
        from repro.messages import TimeRequest

        message = TimeRequest(request_id=7, sleep_ns=5)
        assert key.open(key.seal(message)) == message

    def test_associated_data_round_trip(self, key):
        blob = key.seal("payload", associated_data=b"header")
        assert key.open(blob, associated_data=b"header") == "payload"

    def test_nonces_unique_per_message(self, key):
        blob_a = key.seal("same")
        blob_b = key.seal("same")
        assert blob_a[:NONCE_BYTES] != blob_b[:NONCE_BYTES]
        assert blob_a != blob_b


class TestIntegrity:
    def test_every_flipped_bit_detected(self, key):
        blob = key.seal("sensitive")
        for position in range(len(blob)):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(CryptoError, match="tag mismatch"):
                key.open(bytes(tampered))

    def test_truncation_detected(self, key):
        blob = key.seal("sensitive")
        with pytest.raises(CryptoError):
            key.open(blob[:-1])

    def test_too_short_blob_rejected(self, key):
        with pytest.raises(CryptoError):
            key.open(b"x" * (NONCE_BYTES + TAG_BYTES - 1))

    def test_wrong_key_rejected(self, key):
        other = SecureChannelKey.between("alice", "carol")
        with pytest.raises(CryptoError):
            other.open(key.seal("secret"))

    def test_wrong_associated_data_rejected(self, key):
        blob = key.seal("payload", associated_data=b"header")
        with pytest.raises(CryptoError):
            key.open(blob, associated_data=b"other")

    def test_associated_data_prefix_rejected(self, key):
        blob = key.seal("payload", associated_data=b"ab")
        with pytest.raises(CryptoError, match="tag mismatch"):
            key.open(blob, associated_data=b"a")


class TestConfidentiality:
    def test_plaintext_not_in_ciphertext(self, key):
        secret = "SLEEP_DURATION_1000000000"
        blob = key.seal(secret)
        assert secret.encode() not in blob

    def test_sleep_value_not_recoverable_from_bytes(self, key):
        """The attacker's blindness to s — the premise of the F± attacks."""
        from repro.messages import TimeRequest

        blob_zero = key.seal(TimeRequest(request_id=1, sleep_ns=0))
        blob_one = key.seal(TimeRequest(request_id=2, sleep_ns=1_000_000_000))
        # Identical sizes: size side-channel closed; only timing remains.
        assert len(blob_zero) == len(blob_one)

    @pytest.mark.parametrize(
        "message_type", [TimeRequest, TimeResponse, PeerTimeRequest, PeerTimeResponse]
    )
    @pytest.mark.parametrize(
        "value", [0, -(2**63), 2**64 - 1], ids=["zero", "i64-min", "u64-max"]
    )
    def test_protocol_messages_seal_to_one_pad_block(self, key, message_type, value):
        """Every protocol message is one size on the wire, whatever it holds."""
        message = message_type(**{field.name: value for field in fields(message_type)})
        blob = key.seal(message)
        assert len(blob) == NONCE_BYTES + PAD_BLOCK_BYTES + TAG_BYTES == 156
        assert key.open(blob) == message
