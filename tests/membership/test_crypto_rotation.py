"""Epoch-key rotation: the cryptographic cut behind quarantine."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, CryptoError
from repro.messages import PeerTimeRequest
from repro.net import crypto
from repro.net.crypto import SecureChannelKey, derive_epoch_secret
from repro.net.transport import SecureEndpoint
from repro.sim.units import MILLISECOND


def _cluster():
    from repro.core.cluster import ClusterConfig, TriadCluster
    from repro.sim.kernel import Simulator

    return TriadCluster(Simulator(seed=1), ClusterConfig(node_count=3))


class TestEpochSecret:
    def test_deterministic_per_epoch_and_label(self):
        assert derive_epoch_secret(3, "cluster") == derive_epoch_secret(3, "cluster")
        assert derive_epoch_secret(3, "cluster") != derive_epoch_secret(4, "cluster")
        assert derive_epoch_secret(3, "cluster") != derive_epoch_secret(3, "other")

    def test_negative_epoch_rejected(self):
        with pytest.raises(CryptoError):
            derive_epoch_secret(-1, "cluster")


class TestRekey:
    def _pair(self):
        return (
            SecureChannelKey.between("node-1", "node-2"),
            SecureChannelKey.between("node-2", "node-1"),
        )

    def test_same_secret_keeps_the_link_interoperating(self):
        a, b = self._pair()
        secret = derive_epoch_secret(1, "cluster")
        a.rekey(secret, 1)
        b.rekey(secret, 1)
        assert b.open(a.seal({"t": 42})) == {"t": 42}
        assert a.epoch == b.epoch == 1

    def test_old_epoch_blob_is_rejected(self):
        """A stale sender, or one the epoch secret was withheld from, is cut off."""
        a, b = self._pair()
        stale = a.seal("from the old epoch")
        b.rekey(derive_epoch_secret(1, "cluster"), 1)
        with pytest.raises(CryptoError, match="tag mismatch"):
            b.open(stale)
        # And the cut is symmetric: the un-rotated side cannot read the
        # rotated side's blobs either.
        with pytest.raises(CryptoError, match="tag mismatch"):
            a.open(b.seal("from the new epoch"))

    def test_missed_epochs_recover_in_one_step(self):
        # Rotation derives from the base key, not the previous epoch key:
        # a node that missed epochs 1..4 re-keys straight to epoch 5.
        a, b = self._pair()
        for epoch in range(1, 6):
            a.rekey(derive_epoch_secret(epoch, "cluster"), epoch)
        b.rekey(derive_epoch_secret(5, "cluster"), 5)
        assert b.open(a.seal("caught up")) == "caught up"

    def test_epoch_zero_restores_the_base_key(self):
        a, b = self._pair()
        a.rekey(derive_epoch_secret(2, "cluster"), 2)
        a.rekey(b"\x00" * 32, 0)  # secret is irrelevant for epoch 0
        assert b.open(a.seal("back to base")) == "back to base"
        assert a.open(b.seal("both ways")) == "both ways"
        assert a.epoch == 0

    def test_rekeys_before_traffic_land_on_the_last_epoch(self):
        a, b = self._pair()
        a.rekey(derive_epoch_secret(3, "cluster"), 3)
        a.rekey(derive_epoch_secret(5, "cluster"), 5)
        b.rekey(derive_epoch_secret(5, "cluster"), 5)
        assert b.open(a.seal("epoch five")) == "epoch five"
        assert a.open(b.seal("and back")) == "and back"

    def test_rotations_and_traffic_derive_no_key(self, monkeypatch):
        """A link key is the pair plus the epoch secret: building links,
        rotating them and sealing under them derive nothing."""
        secrets = [derive_epoch_secret(epoch, "cluster") for epoch in range(1, 4)]
        derived = []

        def sha256(data):
            derived.append(data)
            return hashlib.sha256(data)

        # Every derivation hashes through the crypto module's hashlib,
        # however the caller imported derive_key.
        monkeypatch.setattr(crypto, "hashlib", SimpleNamespace(sha256=sha256))
        a, b = self._pair()
        for epoch, secret in enumerate(secrets, start=1):
            a.rekey(secret, epoch)
            b.rekey(secret, epoch)
            assert b.open(a.seal(epoch)) == epoch
            assert a.open(b.seal(-epoch)) == -epoch
        cluster = _cluster()
        node, peer = cluster.nodes[0], cluster.nodes[1]
        for endpoint in (node.endpoint, peer.endpoint):
            endpoint.enter_epoch(secrets[0], 1)
        # The first seal builds the link and picks the epoch up; the
        # peer's first open does the same on its side.
        node.endpoint.send(peer.name, PeerTimeRequest(request_id=10**6))
        cluster.sim.run(until=5 * MILLISECOND)
        assert peer.endpoint.auth_failures == 0
        assert derived == []

    def test_rekey_resets_the_nonce_counter(self):
        a, _ = self._pair()
        assert [a.seal("x").nonce, a.seal("y").nonce] == [0, 1]
        a.rekey(derive_epoch_secret(1, "cluster"), 1)
        # Fresh key, fresh counter: the nonce starts at zero again.
        assert [a.seal("x").nonce, a.seal("y").nonce] == [0, 1]

    def test_negative_epoch_rejected(self):
        a, _ = self._pair()
        with pytest.raises(CryptoError):
            a.rekey(b"\x00" * 32, -2)


class TestEndpointRotation:
    def test_rekey_peer_rotates_one_link(self, monkeypatch):
        """Entering an epoch moves every node link's epoch; only the link
        that carries traffic rotates, once, through ``rekey_peer``."""
        cluster = _cluster()
        node = cluster.nodes[0]
        peer = node.peer_names[0]
        pickups = []
        rekey_peer = SecureEndpoint.rekey_peer

        def recording(endpoint, name, epoch_secret, epoch):
            pickups.append((endpoint.name, name, epoch))
            rekey_peer(endpoint, name, epoch_secret, epoch)

        monkeypatch.setattr(SecureEndpoint, "rekey_peer", recording)
        assert node.endpoint.peer_epoch(peer) == 0
        node.endpoint.enter_epoch(derive_epoch_secret(1, "cluster"), 1)
        assert [node.endpoint.peer_epoch(name) for name in node.peer_names] == [1, 1]
        assert pickups == []
        node.endpoint.send(peer, PeerTimeRequest(request_id=10**6))
        node.endpoint.send(peer, PeerTimeRequest(request_id=10**6 + 1))
        assert pickups == [(node.name, peer, 1)]
        assert list(node.endpoint._links) == [peer]
        # Other links are untouched — notably the TA link.
        ta = cluster.tas[0].name
        assert node.endpoint.peer_epoch(ta) == 0

    def test_unknown_peer_raises(self):
        cluster = _cluster()
        node = cluster.nodes[0]
        with pytest.raises(ConfigurationError, match="no peer"):
            node.endpoint.rekey_peer("node-99", b"\x00" * 32, 1)
        with pytest.raises(ConfigurationError, match="no peer"):
            node.endpoint.peer_epoch("node-99")

    def test_peer_names_exclude_the_time_authority(self):
        cluster = _cluster()
        node = cluster.nodes[0]
        ta_names = {ta.name for ta in cluster.tas}
        assert not (set(node.peer_names) & ta_names)
