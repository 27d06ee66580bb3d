"""Tests for the network: delivery, delays, drops, reordering, adversaries."""

import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import Interference, NetworkAdversary, RuleBasedAdversary
from repro.net.channel import Network
from repro.net.delays import ConstantDelay, UniformDelay
from repro.net.message import Address
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=6)


@pytest.fixture
def net(sim):
    return Network(sim, default_delay=ConstantDelay(units.milliseconds(1)))


def attach_recording(sim, net, host):
    """Attach a socket at ``host`` whose receiver records each datagram with its delivery time."""
    received = []
    socket = net.attach(Address(host), lambda datagram: received.append((sim.now, datagram)))
    return socket, received


class TestDelivery:
    def test_datagram_arrives_after_link_delay(self, sim, net):
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")
        a.send(b.address, b"hello")
        sim.run()
        assert received[0][0] == units.milliseconds(1)
        assert received[0][1].payload == b"hello"

    def test_recv_before_send_blocks_until_arrival(self, sim, net):
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")

        def sender():
            yield sim.timeout(units.SECOND)
            a.send(b.address, b"later")

        sim.process(sender())
        sim.run()
        assert received[0][0] == units.SECOND + units.milliseconds(1)

    def test_queued_datagrams_drained_in_order(self, sim, net):
        """Datagrams queued for one delivery instant arrive in send order."""
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")
        for payload in (b"1", b"2", b"3"):
            a.send(b.address, payload)
        sim.run()
        assert [(t, d.payload) for t, d in received] == [
            (units.milliseconds(1), payload) for payload in (b"1", b"2", b"3")
        ]

    def test_socket_without_receiver_counts_and_discards(self, sim, net):
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"unread")
        sim.run()
        assert b.received_count == 1
        assert net.dropped_count == 0

    def test_unbound_destination_counts_as_dropped(self, sim, net):
        a = net.attach(Address("a"))
        a.send(Address("ghost"), b"void")
        sim.run()
        assert len(net.dropped) == 1

    def test_duplicate_address_rejected(self, net):
        net.attach(Address("a"))
        with pytest.raises(ConfigurationError):
            net.attach(Address("a"))

    def test_per_link_delay_override(self, sim, net):
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")
        net.set_link_delay("a", "b", ConstantDelay(units.SECOND))
        a.send(b.address, b"slow")
        sim.run()
        assert received[0][0] == units.SECOND

    def test_reordering_possible_with_jittery_delays(self, sim):
        net = Network(sim, default_delay=UniformDelay(0, units.SECOND))
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")
        for i in range(30):
            a.send(b.address, bytes([i]))
        sim.run()
        order = [d.payload[0] for _, d in received]
        assert sorted(order) == list(range(30))
        assert order != list(range(30))  # at least one inversion expected


class TestDrops:
    def test_drop_probability_loses_datagrams(self, sim):
        net = Network(sim, default_delay=ConstantDelay(1), drop_probability=0.5)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        for _ in range(200):
            a.send(b.address, b"x")
        sim.run()
        assert 40 < len(net.dropped) < 160
        assert b.received_count == 200 - len(net.dropped)

    def test_invalid_drop_probability_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            Network(sim, drop_probability=1.0)

    def test_dropped_ledger_is_bounded_while_counts_stay_exact(self, sim, net):
        from repro.net.channel import DROPPED_RING_SIZE

        a = net.attach(Address("a"))
        total = DROPPED_RING_SIZE + 500
        for _ in range(total):
            a.send(Address("ghost"), b"void")
        sim.run()
        # The ring keeps only the most recent datagrams (memory bound for
        # long loss campaigns), but the counters never lose a drop.
        assert len(net.dropped) == DROPPED_RING_SIZE
        assert net.dropped_count == total
        assert sum(net.drop_counts.values()) == total

    def test_send_log_is_bounded_while_sent_count_stays_exact(self, sim, net):
        from repro.net.channel import DROPPED_RING_SIZE

        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        total = DROPPED_RING_SIZE + 500
        sent = [a.send(b.address if i % 2 else Address("ghost"), b"x") for i in range(total)]
        sim.run()
        # The log keeps only the most recent sends, so a long run does not
        # keep every datagram (and the message it carries) alive.
        assert len(net.log) == DROPPED_RING_SIZE
        assert net.log[0] is sent[500]
        assert list(net.log) == sent[500:]
        assert net.sent_count == total
        assert b.received_count + net.dropped_count == net.sent_count
        assert b.received_count == total // 2


class TestAdversaryIntegration:
    def test_adversary_sees_metadata_not_plaintext(self, sim, net):
        observed = []

        class Spy(NetworkAdversary):
            def interfere(self, observation):
                observed.append(observation)
                return Interference()

        net.add_adversary(Spy(sim))
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"ciphertext-bytes")
        sim.run()
        assert len(observed) == 1
        assert observed[0].source_host == "a"
        assert observed[0].size_bytes == len(b"ciphertext-bytes")
        assert not hasattr(observed[0], "payload")

    def test_adversary_delay_adds_to_base(self, sim, net):
        adversary = RuleBasedAdversary(sim)
        adversary.delay_flow("a", "b", units.milliseconds(100))
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b, received = attach_recording(sim, net, "b")
        a.send(b.address, b"delayed")
        sim.run()
        assert received[0][0] == units.milliseconds(101)

    def test_adversary_drop(self, sim, net):
        adversary = RuleBasedAdversary(sim)
        adversary.drop_flow("a", "b")
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"lost")
        a.send(Address("a"), b"kept")  # different flow: untouched... to self
        sim.run()
        assert len(net.dropped) == 1
        assert len(adversary.interferences) == 1

    def test_scoped_adversary_ignores_other_hosts(self, sim, net):
        adversary = RuleBasedAdversary(sim, scope_hosts={"c"})
        adversary.add_rule(lambda obs: True, Interference(drop=True))
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"unseen")
        sim.run()
        assert b.received_count == 1
        assert len(adversary.observations) == 0

    def test_adversary_diagnostics_are_bounded(self, sim, net):
        from repro.net.channel import DROPPED_RING_SIZE

        adversary = RuleBasedAdversary(sim)
        adversary.drop_flow("a", "b")
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        total = DROPPED_RING_SIZE + 500
        sent = [a.send(b.address, b"lost") for _ in range(total)]
        sim.run()
        assert net.dropped_count == total
        assert len(adversary.observations) == DROPPED_RING_SIZE
        assert len(adversary.interferences) == DROPPED_RING_SIZE
        assert [o.datagram_id for o in adversary.observations] == [
            d.datagram_id for d in sent[500:]
        ]
        assert adversary.interferences[-1][0] is adversary.observations[-1]

    def test_negative_adversary_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Interference(extra_delay_ns=-1)
