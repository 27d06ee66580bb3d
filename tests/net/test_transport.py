"""Tests for secure endpoints: sealing, routing, consumers, authentication drops."""

import pytest

from repro.errors import ConfigurationError
from repro.net.channel import Network
from repro.net.crypto import SecureChannelKey
from repro.net.delays import ConstantDelay
from repro.net.message import Address
from repro.net.transport import SecureEndpoint
from repro.sim import Event, Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=7)


@pytest.fixture
def net(sim):
    return Network(sim, default_delay=ConstantDelay(units.milliseconds(1)))


@pytest.fixture
def pair(sim, net):
    alice = SecureEndpoint(sim, net, "alice")
    bob = SecureEndpoint(sim, net, "bob")
    alice.register_peer(bob)
    bob.register_peer(alice)
    return alice, bob


def inbox(sim, endpoint):
    """Make ``endpoint`` consume into a list of ``(now, sender, message)``."""
    received = []
    endpoint.consumer = lambda sender, message: received.append((sim.now, sender, message))
    return received


class TestMessaging:
    def test_round_trip_message(self, sim, pair):
        alice, bob = pair
        received = inbox(sim, bob)
        alice.send("bob", {"hello": "world"})
        sim.run()
        assert received == [(units.milliseconds(1), "alice", {"hello": "world"})]

    def test_bidirectional_conversation(self, sim, pair):
        alice, bob = pair
        transcript = []

        def bob_consumer(sender, message):
            transcript.append(message)
            bob.send(sender, "pong")

        bob.consumer = bob_consumer
        alice.consumer = lambda sender, message: transcript.append(message)
        alice.send("bob", "ping")
        sim.run()
        assert transcript == ["ping", "pong"]
        assert sim.now == 2 * units.milliseconds(1)

    def test_send_to_unknown_peer_rejected(self, pair):
        alice, _ = pair
        with pytest.raises(ConfigurationError):
            alice.send("mallory", "hi")

    def test_cannot_peer_with_self(self, sim, net):
        endpoint = SecureEndpoint(sim, net, "solo")
        with pytest.raises(ConfigurationError):
            endpoint.add_peer("solo", endpoint.address, SecureChannelKey.between("a", "b"))

    def test_duplicate_peer_rejected(self, pair):
        alice, bob = pair
        with pytest.raises(ConfigurationError):
            alice.register_peer(bob)


class TestConsumer:
    def test_same_tick_deliveries_arrive_in_delivery_order(self, sim, pair):
        """Datagrams sharing a delivery tick reach the consumer in the order
        they were sent, each at that tick."""
        alice, bob = pair
        received = inbox(sim, bob)
        for i in range(3):
            alice.send("bob", i)
        sim.run()
        assert received == [(units.milliseconds(1), "alice", i) for i in range(3)]

    def test_delivery_runs_ahead_of_same_tick_wakeup(self, sim, pair):
        """The consumer runs inside the (priority-0) delivery timeout, so it
        sees the datagram before a priority-1 wake-up queued earlier for
        the same nanosecond."""
        alice, bob = pair
        order = []
        bob.consumer = lambda sender, message: order.append(("delivery", sim.now))
        wake = Event(sim)
        wake.succeed(delay=units.milliseconds(1))
        wake.callbacks.append(lambda event: order.append(("wake", sim.now)))
        alice.send("bob", "hi")
        sim.run()
        assert order == [("delivery", units.milliseconds(1)), ("wake", units.milliseconds(1))]

    def test_no_consumer_drops_and_counts(self, sim, pair):
        alice, bob = pair
        for i in range(3):
            alice.send("bob", i)
        sim.run()
        assert bob.unconsumed_drops == 3
        assert bob.auth_failures == bob.unknown_sender_drops == 0
        received = inbox(sim, bob)
        alice.send("bob", 3)
        sim.run()
        assert [message for _, _, message in received] == [3]
        assert bob.unconsumed_drops == 3


class TestAuthentication:
    def test_unknown_sender_dropped(self, sim, net, pair):
        alice, bob = pair
        mallory = SecureEndpoint(sim, net, "mallory")
        mallory.add_peer("bob", bob.address, SecureChannelKey.between("mallory", "bob"))
        received = inbox(sim, bob)
        mallory.send("bob", "forged")
        sim.run()
        assert bob.unknown_sender_drops == 1
        assert received == []

    def test_spoofed_source_fails_authentication(self, sim, net, pair):
        """Mallory spoofs Alice's address but lacks the alice-bob key."""
        alice, bob = pair
        wrong_key = SecureChannelKey.between("mallory", "bob")
        received = inbox(sim, bob)
        net.send(alice.address, bob.address, wrong_key.seal("forged"))
        sim.run()
        assert bob.auth_failures == 1
        assert received == []

    def test_tampered_datagram_dropped(self, sim, net, pair):
        """A payload swapped for forged bytes fails authentication and is counted."""
        alice, bob = pair
        received = inbox(sim, bob)
        for blob in (b"forged", bytes(156)):
            net.send(alice.address, bob.address, blob)
        sim.run()
        assert bob.auth_failures == 2
        assert received == []

    def test_retargeted_envelope_dropped(self, sim, net, pair):
        """An envelope sealed for the alice-bob link, redirected to carol from
        alice's address, fails carol's alice-carol key."""
        alice, bob = pair
        carol = SecureEndpoint(sim, net, "carol")
        carol.register_peer(alice)
        received = inbox(sim, carol)
        net.send(alice.address, carol.address, SecureChannelKey.between("alice", "bob").seal("hi"))
        sim.run()
        assert carol.auth_failures == 1
        assert received == []

    def test_replayed_datagram_is_accepted_by_base_protocol(self, sim, net, pair):
        """The AEAD layer itself does not prevent replay — documents the
        model honestly: replay defenses live at the protocol layer
        (request ids), not the crypto layer."""
        alice, bob = pair
        key = SecureChannelKey.between("alice", "bob")
        blob = key.seal("once")
        received = inbox(sim, bob)
        net.send(alice.address, bob.address, blob)
        net.send(alice.address, bob.address, blob)
        sim.run()
        assert [message for _, _, message in received] == ["once", "once"]
