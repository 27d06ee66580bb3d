"""Tests for the Time Authority server."""

import pytest

from repro.authority.ta import TimeAuthority
from repro.errors import ProtocolError
from repro.messages import TimeRequest, TimeResponse
from repro.net.channel import Network
from repro.net.delays import ConstantDelay
from repro.net.transport import SecureEndpoint
from repro.sim import Simulator, units


@pytest.fixture
def world(request):
    sim = Simulator(seed=8)
    net = Network(sim, default_delay=ConstantDelay(units.milliseconds(1)))
    ta_endpoint = SecureEndpoint(sim, net, "ta")
    client = SecureEndpoint(sim, net, "client")
    ta_endpoint.register_peer(client)
    client.register_peer(ta_endpoint)
    ta = TimeAuthority(sim, ta_endpoint)
    return sim, client, ta


def exchange(sim, client, request):
    box = {}

    def consume(sender, message):
        box["response"] = message
        box["at"] = sim.now

    client.consumer = consume
    client.send("ta", request)
    sim.run()
    return box


class TestImmediateResponses:
    def test_zero_sleep_returns_promptly(self, world):
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=1, sleep_ns=0))
        response = box["response"]
        assert isinstance(response, TimeResponse)
        assert response.request_id == 1
        assert box["at"] == 2 * units.milliseconds(1)  # one RTT

    def test_reference_time_is_transmit_instant(self, world):
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=1, sleep_ns=0))
        response = box["response"]
        # Request arrived at t=1ms; zero sleep: transmitted at 1ms.
        assert response.reference_time_ns == units.milliseconds(1)
        assert response.transmit_time_ns == response.reference_time_ns

    def test_receive_and_transmit_times_exposed(self, world):
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=3, sleep_ns=units.SECOND))
        response = box["response"]
        assert response.receive_time_ns == units.milliseconds(1)
        assert response.transmit_time_ns == units.milliseconds(1) + units.SECOND


class TestSleepHandling:
    def test_requested_sleep_honoured(self, world):
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=2, sleep_ns=units.SECOND))
        assert box["at"] == units.SECOND + 2 * units.milliseconds(1)
        assert box["response"].sleep_ns == units.SECOND

    def test_sleep_clamped_to_maximum(self, world):
        sim, client, ta = world
        ta.max_sleep_ns = units.SECOND
        box = exchange(sim, client, TimeRequest(request_id=4, sleep_ns=10 * units.SECOND))
        assert box["at"] == units.SECOND + 2 * units.milliseconds(1)

    def test_negative_sleep_treated_as_zero(self, world):
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=5, sleep_ns=-5))
        assert box["at"] == 2 * units.milliseconds(1)


class TestConcurrency:
    def test_concurrent_requests_served_independently(self, world):
        sim, client, ta = world
        arrivals = []
        client.consumer = lambda sender, message: arrivals.append((message.request_id, sim.now))
        client.send("ta", TimeRequest(request_id=1, sleep_ns=units.SECOND))
        client.send("ta", TimeRequest(request_id=2, sleep_ns=0))
        sim.run()
        # The zero-sleep response overtakes the one-second-sleep response.
        assert arrivals[0][0] == 2
        assert arrivals[1][0] == 1


class TestRequestHandling:
    def test_reply_leaves_at_receive_time_plus_sleep(self, world):
        """The TA handles a request at its delivery instant and answers
        exactly the (clamped) sleep later, with no process in between."""
        sim, client, ta = world
        box = exchange(sim, client, TimeRequest(request_id=6, sleep_ns=250 * units.MILLISECOND))
        response = box["response"]
        assert response.receive_time_ns == units.milliseconds(1)
        assert response.transmit_time_ns == response.receive_time_ns + 250 * units.MILLISECOND
        assert box["at"] == response.transmit_time_ns + units.milliseconds(1)
        assert ta.stats.request_log == [(units.milliseconds(1), "client", 250 * units.MILLISECOND)]

    def test_requests_dropped_while_down(self, world):
        sim, client, ta = world
        ta.set_down()
        box = exchange(sim, client, TimeRequest(request_id=7, sleep_ns=0))
        assert box == {}
        assert ta.stats.requests_dropped_down == 1
        assert ta.stats.requests_received == 0
        assert ta.stats.responses_sent == 0
        ta.set_down(False)
        box = exchange(sim, client, TimeRequest(request_id=8, sleep_ns=0))
        assert box["response"].request_id == 8

    def test_request_taken_before_outage_is_still_answered(self, world):
        """Going down drops new requests; one already sleeping is answered."""
        sim, client, ta = world
        box = {}
        client.consumer = lambda sender, message: box.setdefault("response", message)
        client.send("ta", TimeRequest(request_id=9, sleep_ns=units.SECOND))
        sim.run(until=units.milliseconds(2))
        ta.set_down()
        sim.run()
        assert box["response"].request_id == 9
        assert ta.stats.requests_dropped_down == 0

    def test_unexpected_message_raises(self, world):
        sim, client, ta = world
        client.send("ta", "not a time request")
        with pytest.raises(ProtocolError, match="unexpected message str from client"):
            sim.run()


class TestClockOffset:
    def test_configured_offset_applied(self):
        sim = Simulator(seed=9)
        net = Network(sim, default_delay=ConstantDelay(0))
        ta_endpoint = SecureEndpoint(sim, net, "ta")
        client = SecureEndpoint(sim, net, "client")
        ta_endpoint.register_peer(client)
        client.register_peer(ta_endpoint)
        ta = TimeAuthority(sim, ta_endpoint, clock_offset_ns=units.SECOND)
        assert ta.now() == units.SECOND
        box = exchange(sim, client, TimeRequest(request_id=1, sleep_ns=0))
        assert box["response"].reference_time_ns == units.SECOND


class TestStats:
    def test_request_accounting(self, world):
        sim, client, ta = world
        exchange(sim, client, TimeRequest(request_id=1, sleep_ns=0))
        assert ta.stats.requests_received == 1
        assert ta.stats.responses_sent == 1
        assert ta.stats.requests_from("client") == 1
        assert ta.stats.requests_from("nobody") == 0
