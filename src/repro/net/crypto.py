"""Sealed channels for protocol messages.

The paper's implementation encrypts all protocol traffic with AES-256-GCM.
What the *protocol analysis* needs from the cipher is exactly two
properties, and this module models those two, not the cipher bytes:

* **Confidentiality** — an on-path adversary learns a datagram's
  addresses, size and timing, never its content; in particular it cannot
  read the requested TA waittime ``s`` and must infer it from timing
  (§III-C). :meth:`SecureChannelKey.seal` returns an opaque envelope whose
  one visible property is its wire size, :data:`SEALED_BYTES` for every
  message (the paper's C++ implementation exchanges fixed-size structs),
  and the adversary is handed only
  :class:`~repro.net.adversary.Observation` metadata.
* **Integrity** — an envelope opens only under the key that sealed it and
  with the same associated data. Another link's key, a stale or withheld
  epoch secret, other associated data, or a payload that is not an
  envelope at all raises :class:`~repro.errors.CryptoError`. The adversary
  is therefore limited to delaying, dropping, reordering, and replaying.

A key is an identity rather than bytes: the sorted pair of party names,
plus the epoch secret after a membership rotation. Holding the identity
stands for holding the key, and only this module builds envelopes, so an
envelope cannot be forged — as an AEAD ciphertext cannot without the key.
No simulated outcome depends on a ciphertext byte, so none is computed.

Nonces are drawn from a per-key counter, mirroring GCM's
counter-based-nonce deployment mode and keeping simulations reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.errors import CryptoError

#: Byte length of derived keys and epoch secrets (matches AES-256).
KEY_BYTES = 32

#: Wire size of every sealed message: a 12-byte GCM nonce, one 128-byte
#: block holding the fixed-size message struct, and a 16-byte tag.
SEALED_BYTES = 12 + 128 + 16


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
    hands it to every *member* endpoint, and each of that endpoint's node
    links folds it into its key (:meth:`SecureChannelKey.rekey`) at the
    link's next seal or open. A node the controller withholds
    the secret from keeps sealing under its previous epoch key, and every
    member rejects those envelopes at :meth:`SecureChannelKey.open` — the
    cryptographic cut that makes quarantine enforceable.
    """
    if epoch < 0:
        raise CryptoError(f"epoch must be non-negative, got {epoch}")
    return derive_key("membership-epoch", str(epoch), *labels)


class _Sealed:
    """A sealed message on the wire: opaque but for its size."""

    __slots__ = ("key", "associated_data", "nonce", "message")

    def __init__(self, key: tuple, associated_data: bytes, nonce: int, message: Any) -> None:
        self.key = key
        self.associated_data = associated_data
        self.nonce = nonce
        self.message = message

    def __len__(self) -> int:
        return SEALED_BYTES


class SecureChannelKey:
    """One end of a link: the link's key identity and a nonce counter.

    Each end of a link holds its own object over the same identity, so
    each direction keeps its own nonce counter.
    """

    __slots__ = ("_pair", "_key", "_nonce_counter", "epoch")

    def __init__(self, pair: tuple[str, str]) -> None:
        if len(pair) != 2 or not pair[0] < pair[1]:
            raise CryptoError(f"a link key names two parties in sorted order, got {pair!r}")
        self._pair = pair
        #: (pair, epoch secret), the secret None on the attestation-time key.
        self._key: tuple = (pair, None)
        self._nonce_counter = 0
        self.epoch = 0

    @classmethod
    def between(cls, party_a: str, party_b: str) -> "SecureChannelKey":
        """Key shared by two named parties (order-independent)."""
        return cls((party_a, party_b) if party_a < party_b else (party_b, party_a))

    def rekey(self, epoch_secret: bytes, epoch: int) -> None:
        """Rotate to the key for ``epoch``: the pair plus ``epoch_secret``.

        Both ends of a link name the same pair, so feeding them the same
        epoch secret yields interoperating keys without any wire exchange.
        Envelopes sealed under any other epoch's key fail :meth:`open` —
        "old-epoch messages rejected" is a consequence of the key, not an
        extra code path. Rotation never depends on the previous epoch, so
        a node that missed epochs re-keys to the current one in a single
        step, and epoch 0 restores the attestation-time key exactly.
        """
        if epoch < 0:
            raise CryptoError(f"epoch must be non-negative, got {epoch}")
        self._key = (self._pair, epoch_secret if epoch else None)
        self._nonce_counter = 0
        self.epoch = epoch

    # -- AEAD -----------------------------------------------------------------

    def seal(self, message: Any, associated_data: bytes = b"") -> _Sealed:
        """Encrypt-and-authenticate ``message``; the result is the wire payload."""
        nonce = self._nonce_counter
        self._nonce_counter = nonce + 1
        return _Sealed(self._key, associated_data, nonce, message)

    def open(self, sealed: Any, associated_data: bytes = b"") -> Any:
        """Verify-and-decrypt a wire payload; raises :class:`CryptoError` on tamper."""
        if (
            type(sealed) is not _Sealed
            or sealed.key != self._key
            or sealed.associated_data != associated_data
        ):
            raise CryptoError("authentication tag mismatch (tampered or wrong key)")
        return sealed.message
