"""Tests for secure endpoints: sealing, routing, authentication drops."""

import pytest

from repro.errors import ConfigurationError
from repro.net.channel import Network
from repro.net.crypto import SecureChannelKey
from repro.net.delays import ConstantDelay
from repro.net.message import Address
from repro.net.transport import SecureEndpoint
from repro.sim import Interrupt, Simulator, units


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


class TestMessaging:
    def test_round_trip_message(self, sim, pair):
        alice, bob = pair
        inbox = []

        def bob_loop():
            envelope = yield bob.recv()
            inbox.append(envelope)

        sim.process(bob_loop())
        alice.send("bob", {"hello": "world"})
        sim.run()
        assert inbox[0].sender == "alice"
        assert inbox[0].message == {"hello": "world"}
        assert inbox[0].received_at_ns == units.milliseconds(1)

    def test_bidirectional_conversation(self, sim, pair):
        alice, bob = pair
        transcript = []

        def bob_loop():
            envelope = yield bob.recv()
            transcript.append(envelope.message)
            bob.send("alice", "pong")

        def alice_loop():
            alice.send("bob", "ping")
            envelope = yield alice.recv()
            transcript.append(envelope.message)

        sim.process(bob_loop())
        sim.process(alice_loop())
        sim.run()
        assert transcript == ["ping", "pong"]

    def test_drain_returns_queued_messages(self, sim, pair):
        alice, bob = pair
        for i in range(3):
            alice.send("bob", i)
        sim.run()
        assert [envelope.message for envelope in bob.drain()] == [0, 1, 2]
        assert bob.drain() == []

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


class TestConsumerRestart:
    @pytest.mark.xfail(
        strict=True,
        reason="open bug: an interrupted consumer's pending recv() stays first "
        "in the endpoint's waiters and swallows the next envelope",
    )
    def test_restarted_consumer_receives_every_envelope(self, sim, pair):
        """A crashed node's message loop is interrupted and a new one started
        on the same endpoint; the envelopes that follow must reach it."""
        alice, bob = pair
        received = []

        def consumer():
            try:
                while True:
                    envelope = yield bob.recv()
                    received.append(envelope.message)
            except Interrupt:
                return

        first = sim.process(consumer())
        sim.run(until=units.milliseconds(1))
        first.interrupt()
        sim.run(until=units.milliseconds(2))
        sim.process(consumer())
        alice.send("bob", 1)
        alice.send("bob", 2)
        sim.run()
        assert received == [1, 2]


class TestAuthentication:
    def test_unknown_sender_dropped(self, sim, net, pair):
        alice, bob = pair
        mallory = SecureEndpoint(sim, net, "mallory")
        mallory.add_peer("bob", bob.address, SecureChannelKey.between("mallory", "bob"))
        mallory.send("bob", "forged")
        sim.run()
        assert bob.unknown_sender_drops == 1
        assert bob.drain() == []

    def test_spoofed_source_fails_authentication(self, sim, net, pair):
        """Mallory spoofs Alice's address but lacks the alice-bob key."""
        alice, bob = pair
        wrong_key = SecureChannelKey.between("mallory", "bob")
        net.send(alice.address, bob.address, wrong_key.seal("forged"))
        sim.run()
        assert bob.auth_failures == 1
        assert bob.drain() == []

    def test_tampered_datagram_dropped(self, sim, net, pair):
        """A payload swapped for forged bytes fails authentication and is counted."""
        alice, bob = pair
        for blob in (b"forged", bytes(156)):
            net.send(alice.address, bob.address, blob)
        sim.run()
        assert bob.auth_failures == 2
        assert bob.drain() == []

    def test_retargeted_envelope_dropped(self, sim, net, pair):
        """An envelope sealed for the alice-bob link, redirected to carol from
        alice's address, fails carol's alice-carol key."""
        alice, bob = pair
        carol = SecureEndpoint(sim, net, "carol")
        carol.register_peer(alice)
        net.send(alice.address, carol.address, SecureChannelKey.between("alice", "bob").seal("hi"))
        sim.run()
        assert carol.auth_failures == 1
        assert carol.drain() == []

    def test_replayed_datagram_is_accepted_by_base_protocol(self, sim, net, pair):
        """The AEAD layer itself does not prevent replay — documents the
        model honestly: replay defenses live at the protocol layer
        (request ids), not the crypto layer."""
        alice, bob = pair
        key = SecureChannelKey.between("alice", "bob")
        blob = key.seal("once")
        net.send(alice.address, bob.address, blob)
        net.send(alice.address, bob.address, blob)
        sim.run()
        assert [envelope.message for envelope in bob.drain()] == ["once", "once"]
