"""Authenticated encryption for protocol messages.

The paper's implementation encrypts all protocol traffic with AES-256-GCM.
What the *protocol analysis* needs from the cipher is exactly two
properties, both of which this module provides functionally (not just as a
flag on a dataclass):

* **Confidentiality** — an on-path adversary holding only the ciphertext
  cannot recover the plaintext; in particular it cannot read the requested
  TA waittime ``s`` and must infer it from timing (§III-C). Plaintexts are
  padded, so every datagram of a message type has the same size.
* **Integrity** — any modification of the ciphertext, a wrong key, a stale
  epoch key or wrong associated data is detected by the receiver, which
  raises :class:`~repro.errors.CryptoError`. The adversary is therefore
  limited to delaying, dropping, reordering, and replaying.

The AEAD is built from standard-library primitives: the keystream is one
SHAKE-256 squeeze over (key ‖ nonce), XORed onto the padded plaintext as
one integer, and the tag is a keyed BLAKE2b-128 over (nonce ‖ length-framed
associated data ‖ ciphertext). This is a *model* of AES-256-GCM: it is
deterministic, dependency-free, and honest about being simulation-grade
rather than production-grade crypto (no side-channel hardening, no review),
but the security *architecture* (what is hidden from whom, what fails
authentication) matches the paper's implementation exactly.

Nonces are drawn from a per-key counter, mirroring GCM's
counter-based-nonce deployment mode and keeping simulations reproducible.
"""

from __future__ import annotations

import hashlib
import hmac
import pickle
from typing import Any

from repro.errors import CryptoError

#: Byte length of symmetric keys (matches AES-256).
KEY_BYTES = 32
#: Byte length of nonces (matches GCM's conventional 96-bit nonce).
NONCE_BYTES = 12
#: Byte length of authentication tags (GCM uses 128-bit tags).
TAG_BYTES = 16

#: Plaintexts are padded to a multiple of this before encryption. The
#: paper's C++ implementation exchanges fixed-size structs; without
#: padding, Python's variable-length serialization would leak message
#: contents (e.g. the magnitude of the requested sleep) through datagram
#: sizes — a side channel the modelled attacker must not have.
PAD_BLOCK_BYTES = 128


def derive_key(*labels: str) -> bytes:
    """Derive a deterministic 32-byte key from string labels.

    Experiments pre-share keys between protocol participants (the paper
    provisions keys at enclave attestation time, which is out of scope of
    the time protocol itself). Deriving keys from participant names keeps
    runs reproducible without modelling a key exchange.
    """
    if not labels:
        raise CryptoError("key derivation requires at least one label")
    material = "\x1f".join(labels).encode("utf-8")
    return hashlib.sha256(b"repro-triad-key-v1:" + material).digest()


def derive_epoch_secret(epoch: int, *labels: str) -> bytes:
    """Per-epoch group secret distributed by a membership controller.

    The secret itself never travels on the simulated wire: the controller
    hands it to every *member* endpoint, which folds it into each link key
    (:meth:`SecureChannelKey.rekey`). A node the controller withholds the
    secret from keeps sealing with its previous epoch key, and every
    member rejects those blobs at :meth:`SecureChannelKey.open` — the
    cryptographic cut that makes quarantine enforceable.
    """
    if epoch < 0:
        raise CryptoError(f"epoch must be non-negative, got {epoch}")
    return derive_key("membership-epoch", str(epoch), *labels)


def _link_key(base_key: bytes, epoch_secret: bytes) -> bytes:
    """The epoch link key: the base key keyed by the epoch secret."""
    return hashlib.blake2b(b"rekey:" + base_key, key=epoch_secret, digest_size=KEY_BYTES).digest()


def _crypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the SHAKE-256 keystream of (key, nonce), as one integer."""
    stream = int.from_bytes(hashlib.shake_256(key + nonce).digest(len(data)), "little")
    return (int.from_bytes(data, "little") ^ stream).to_bytes(len(data), "little")


def _tag(key: bytes, nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
    framed = nonce + len(associated_data).to_bytes(8, "little") + associated_data + ciphertext
    return hashlib.blake2b(framed, key=key, digest_size=TAG_BYTES).digest()


class SecureChannelKey:
    """A shared symmetric key with a nonce counter (one end of a link).

    Each end of a link holds its own object over the same key bytes, so
    each direction keeps its own nonce counter.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_BYTES:
            raise CryptoError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
        #: The attestation-time base key; epoch rotation always derives
        #: from this, never from the previous epoch key, so a node that
        #: missed epochs re-keys to the current one in a single step.
        self._base_key = key
        #: The current key, or None until the first use after a rotation.
        self._key: bytes | None = key
        self._epoch_secret = b""
        self._nonce_counter = 0
        self.epoch = 0

    @classmethod
    def between(cls, party_a: str, party_b: str) -> "SecureChannelKey":
        """Key shared by two named parties (order-independent)."""
        return cls(derive_key(*sorted((party_a, party_b))))

    def rekey(self, epoch_secret: bytes, epoch: int) -> None:
        """Rotate to the key for ``epoch``, derived from the base key.

        Both ends of a link hold the same base key, so feeding them the
        same epoch secret yields interoperating keys without any wire
        exchange. Blobs sealed under any other epoch's key fail the tag
        check in :meth:`open` — "old-epoch messages rejected" is a
        consequence of the AEAD, not an extra code path. Epoch 0 restores
        the base key exactly (useful for tests and symmetry). The epoch
        key is derived on the link's first :meth:`seal` or :meth:`open`
        after the rotation, so an idle link costs nothing.
        """
        if epoch < 0:
            raise CryptoError(f"epoch must be non-negative, got {epoch}")
        self._key = self._base_key if epoch == 0 else None
        self._epoch_secret = epoch_secret
        self._nonce_counter = 0
        self.epoch = epoch

    def _current_key(self) -> bytes:
        if self._key is None:
            self._key = _link_key(self._base_key, self._epoch_secret)
        return self._key

    # -- AEAD -----------------------------------------------------------------

    def seal(self, message: Any, associated_data: bytes = b"") -> bytes:
        """Encrypt-and-authenticate ``message`` (any picklable object).

        Returns the wire blob ``nonce ‖ ciphertext ‖ tag``.
        """
        serialized = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        length = len(serialized)
        padded_length = -(-(length + 4) // PAD_BLOCK_BYTES) * PAD_BLOCK_BYTES
        plaintext = length.to_bytes(4, "little") + serialized + bytes(padded_length - length - 4)
        key = self._current_key()
        nonce = self._nonce_counter.to_bytes(NONCE_BYTES, "little")
        self._nonce_counter += 1
        ciphertext = _crypt(key, nonce, plaintext)
        return nonce + ciphertext + _tag(key, nonce, associated_data, ciphertext)

    def open(self, blob: bytes, associated_data: bytes = b"") -> Any:
        """Verify-and-decrypt a wire blob; raises :class:`CryptoError` on tamper."""
        if len(blob) < NONCE_BYTES + TAG_BYTES:
            raise CryptoError("ciphertext too short")
        key = self._current_key()
        nonce = blob[:NONCE_BYTES]
        ciphertext = blob[NONCE_BYTES:-TAG_BYTES]
        if not hmac.compare_digest(blob[-TAG_BYTES:], _tag(key, nonce, associated_data, ciphertext)):
            raise CryptoError("authentication tag mismatch (tampered or wrong key)")
        plaintext = _crypt(key, nonce, ciphertext)
        if len(plaintext) < 4:
            raise CryptoError("plaintext too short for length header")
        length = int.from_bytes(plaintext[:4], "little")
        if length > len(plaintext) - 4:
            raise CryptoError("corrupt plaintext length header")
        try:
            return pickle.loads(plaintext[4 : 4 + length])
        except Exception as exc:  # pragma: no cover - tag already guarantees integrity
            raise CryptoError(f"failed to deserialize plaintext: {exc}") from exc
