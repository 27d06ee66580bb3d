"""Cluster wiring: shared peer directories, links built on first use, and
one key epoch per endpoint."""

import pytest

from repro.core.cluster import ClusterConfig, TriadCluster
from repro.errors import ConfigurationError
from repro.messages import PeerTimeRequest, TimeRequest
from repro.net.crypto import SecureChannelKey, derive_epoch_secret
from repro.net.transport import SecureEndpoint
from repro.oracle.policy import plane_policy
from repro.sim import Simulator, units

TAS = ["time-authority-1", "time-authority-2"]
NODES = ["node-1", "node-2", "node-3", "node-4"]


def _secret(epoch):
    return derive_epoch_secret(epoch, "cluster")


def _cluster(node_count=4, ta_count=2):
    return TriadCluster(Simulator(seed=3), ClusterConfig(node_count=node_count, ta_count=ta_count))


def _sealed_sends(endpoint):
    """Record every payload ``endpoint`` puts on the wire."""
    sent = []
    send = endpoint.socket.send

    def recording(destination, payload):
        sent.append(payload)
        return send(destination, payload)

    endpoint.socket.send = recording
    return sent


class TestPeerOrder:
    def _assert_order(self, cluster):
        for node in cluster.nodes:
            others = [name for name in NODES if name != node.name]
            assert node.endpoint.peer_names == TAS + others
            assert node.peer_names == others
        for ta in cluster.tas:
            assert ta.endpoint.peer_names == NODES

    def test_registration_order_before_and_after_traffic(self):
        cluster = _cluster()
        self._assert_order(cluster)
        # Use links out of order: the listing keeps registration order.
        node = cluster.node(3)
        node.endpoint.send("node-4", PeerTimeRequest(request_id=10**6))
        node.endpoint.send("node-1", PeerTimeRequest(request_id=10**6 + 1))
        cluster.sim.run(until=units.seconds(2))
        assert list(node.endpoint._links)[:2] == ["node-4", "node-1"]
        self._assert_order(cluster)

    def test_wiring_builds_no_link(self):
        cluster = _cluster()
        for endpoint in [node.endpoint for node in cluster.nodes] + [
            ta.endpoint for ta in cluster.tas
        ]:
            assert endpoint._links == {}


class TestEpochPickup:
    def test_link_first_used_after_three_rotations_opens_at_the_current_epoch(self):
        cluster = _cluster()
        a, b = cluster.node(1).endpoint, cluster.node(2).endpoint
        for epoch in (1, 2, 3):
            a.enter_epoch(_secret(epoch), epoch)
            b.enter_epoch(_secret(epoch), epoch)
        assert a.peer_epoch("node-2") == 3
        assert "node-2" not in a._links  # reporting the epoch built nothing
        sent = _sealed_sends(a)
        a.send("node-2", PeerTimeRequest(request_id=10**6))
        assert sent[0].nonce == 0
        assert a._links["node-2"].key.epoch == 3
        cluster.sim.run(until=units.milliseconds(5))
        assert b.auth_failures == 0
        assert b._links["node-1"].key.epoch == 3

    def test_pickup_restarts_the_nonce_counter(self):
        cluster = _cluster()
        a = cluster.node(1).endpoint
        sent = _sealed_sends(a)
        for request_id in range(3):
            a.send("node-2", PeerTimeRequest(request_id=request_id))
        a.enter_epoch(_secret(1), 1)
        a.send("node-2", PeerTimeRequest(request_id=3))
        assert [payload.nonce for payload in sent] == [0, 1, 2, 0]

    def test_withheld_endpoint_is_cut_off_both_ways_but_keeps_its_ta_link(self):
        cluster = _cluster(node_count=3, ta_count=1)
        members = [cluster.node(1).endpoint, cluster.node(2).endpoint]
        withheld = cluster.node(3).endpoint
        for endpoint in members:
            endpoint.enter_epoch(_secret(1), 1)
        assert withheld.peer_epoch("node-1") == 0
        members[0].send("node-3", PeerTimeRequest(request_id=10**6))
        withheld.send("node-1", PeerTimeRequest(request_id=10**6 + 1))
        withheld.send("time-authority", TimeRequest(request_id=10**6 + 2, sleep_ns=0))
        cluster.sim.run(until=units.milliseconds(5))
        assert withheld.auth_failures == 1  # node-1's envelope
        assert members[0].auth_failures == 1  # node-3's envelope
        assert members[1].auth_failures == 0
        ta = cluster.ta
        assert ta.endpoint.auth_failures == 0
        assert ("node-3", 0) in [(sender, sleep) for _t, sender, sleep in ta.stats.request_log]
        assert ta.stats.responses_sent >= 1

    def test_envelope_sealed_before_a_rotation_fails_after_it(self):
        cluster = _cluster()
        a, b = cluster.node(1).endpoint, cluster.node(2).endpoint
        a.send("node-2", PeerTimeRequest(request_id=10**6))  # in flight, epoch 0
        for endpoint in (a, b):
            endpoint.enter_epoch(_secret(1), 1)
        cluster.sim.run(until=units.milliseconds(5))
        assert b.auth_failures == 1
        a.send("node-2", PeerTimeRequest(request_id=10**6 + 1))
        cluster.sim.run(until=units.milliseconds(10))
        assert b.auth_failures == 1

    def test_ta_links_never_rotate(self):
        cluster = _cluster()
        node = cluster.node(1).endpoint
        node.enter_epoch(_secret(4), 4)
        assert [node.peer_epoch(ta) for ta in TAS] == [0, 0]
        node.send(TAS[0], TimeRequest(request_id=10**6, sleep_ns=0))
        assert node._links[TAS[0]].key.epoch == 0


class TestTaIsolation:
    def test_tas_do_not_accept_datagrams_from_each_other(self):
        cluster = _cluster()
        first, second = (ta.endpoint for ta in cluster.tas)
        with pytest.raises(ConfigurationError, match="no peer"):
            first.send(second.name, TimeRequest(request_id=1, sleep_ns=0))
        forged = SecureChannelKey.between(first.name, second.name).seal(
            TimeRequest(request_id=1, sleep_ns=0)
        )
        cluster.network.send(first.address, second.address, forged)
        cluster.sim.run(until=units.milliseconds(5))
        assert second.unknown_sender_drops == 1
        assert second.auth_failures == 0

    def test_an_endpoint_is_not_its_own_peer(self):
        cluster = _cluster()
        node = cluster.node(1).endpoint
        with pytest.raises(ConfigurationError, match="no peer"):
            node.send("node-1", PeerTimeRequest(request_id=1))
        with pytest.raises(ConfigurationError, match="no peer"):
            node.peer_epoch("node-1")


class TestScaling:
    """Counts only: wiring and rotation are O(n) in the cluster size."""

    def test_enforce_cluster_of_1000_builds_no_key_and_rotates_per_endpoint(self, monkeypatch):
        built = []
        init = SecureChannelKey.__init__

        def counting_init(self, pair):
            built.append(pair)
            init(self, pair)

        monkeypatch.setattr(SecureChannelKey, "__init__", counting_init)
        with plane_policy(membership="enforce"):
            cluster = TriadCluster(Simulator(seed=1), ClusterConfig(node_count=1000, core_count=1000))
        assert built == []

        calls = {"enter_epoch": 0, "rekey_peer": 0}
        for name in calls:
            original = getattr(SecureEndpoint, name)

            def counting(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(SecureEndpoint, name, counting)
        cluster.membership._close_epoch()
        assert cluster.membership.rotations == 1
        assert calls == {"enter_epoch": 1000, "rekey_peer": 0}
        assert built == []
