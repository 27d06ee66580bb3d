"""Tests for the sealed-envelope model: confidentiality, integrity, key handling."""

from dataclasses import fields

import pytest

from repro.errors import CryptoError
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest, TimeResponse
from repro.net.crypto import (
    KEY_BYTES,
    SEALED_BYTES,
    SecureChannelKey,
    derive_epoch_secret,
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
        """A key identity is exactly two distinct party names, sorted, so
        both ends of a link always name the same key."""
        for pair in [("alice",), ("alice", "bob", "carol"), ("bob", "alice"), ("a", "a")]:
            with pytest.raises(CryptoError, match="two parties"):
                SecureChannelKey(pair)


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
        sealed = [key.seal("same") for _ in range(3)]
        assert [envelope.nonce for envelope in sealed] == [0, 1, 2]


class TestIntegrity:
    def test_every_flipped_bit_detected(self, key):
        """Flipping any bit of the epoch secret or of the associated data
        makes the envelope fail to open."""
        secret = derive_epoch_secret(1, "cluster")
        sender = SecureChannelKey.between("alice", "bob")
        sender.rekey(secret, 1)
        blob = sender.seal("sensitive", associated_data=b"hdr")
        for position in range(len(secret) * 8):
            flipped = bytearray(secret)
            flipped[position // 8] ^= 1 << position % 8
            key.rekey(bytes(flipped), 1)
            with pytest.raises(CryptoError, match="tag mismatch"):
                key.open(blob, associated_data=b"hdr")
        key.rekey(secret, 1)
        for position in range(3 * 8):
            flipped = bytearray(b"hdr")
            flipped[position // 8] ^= 1 << position % 8
            with pytest.raises(CryptoError, match="tag mismatch"):
                key.open(blob, associated_data=bytes(flipped))
        assert key.open(blob, associated_data=b"hdr") == "sensitive"

    def test_retargeted_envelope_rejected(self, key):
        """An envelope sealed on one link opens on no other link, at any epoch."""
        blob = key.seal("for bob")
        for other in [("alice", "carol"), ("bob", "carol")]:
            with pytest.raises(CryptoError, match="tag mismatch"):
                SecureChannelKey(other).open(blob)
        rotated = SecureChannelKey.between("alice", "bob")
        rotated.rekey(derive_epoch_secret(1, "cluster"), 1)
        with pytest.raises(CryptoError, match="tag mismatch"):
            rotated.open(blob)

    def test_too_short_blob_rejected(self, key):
        """Bytes are never an envelope, whatever their length."""
        for blob in [b"", b"x" * 27, bytes(SEALED_BYTES)]:
            with pytest.raises(CryptoError, match="tag mismatch"):
                key.open(blob)

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
        with pytest.raises(CryptoError, match="tag mismatch"):
            key.open(key.seal("payload", associated_data=b"a"), associated_data=b"ab")


class TestConfidentiality:
    def test_plaintext_not_in_envelope_repr(self, key):
        """An envelope shows its size, not its content, wherever it is printed."""
        secret = "SLEEP_DURATION_1000000000"
        blob = key.seal(secret)
        assert secret not in repr(blob)
        assert secret not in str(blob)
        assert "alice" not in repr(blob)

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
        assert len(blob) == SEALED_BYTES == 12 + 128 + 16
        assert key.open(blob) == message
