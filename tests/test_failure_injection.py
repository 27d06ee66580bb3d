"""Failure-injection tests: the protocol under lossy and hostile networks.

The paper's deployment uses UDP with no delivery guarantees; these tests
verify the implementation tolerates what UDP actually does — loss,
reordering, duplication — and what the attacker adds, without ever
violating correctness invariants (serve-side monotonicity, no silent
taint-clearing).
"""

import pytest

from repro.core.api import TimestampClient
from repro.core.cluster import ClusterConfig, TriadCluster
from repro.core.node import TriadNodeConfig
from repro.core.states import NodeState
from repro.hardware.aex import TriadLikeAexDelays
from repro.net.delays import ConstantDelay, UniformDelay
from repro.sim import Simulator, units
from tests.net.conftest import recording


def lossy_cluster(seed, drop_probability, delay_model=None):
    sim = Simulator(seed=seed)
    config = ClusterConfig(
        delay_model=delay_model or ConstantDelay(100 * units.MICROSECOND),
        node_config=TriadNodeConfig(
            calibration_rounds=1,
            calibration_sleeps_ns=(0, 100 * units.MILLISECOND),
            monitor_calibration_samples=4,
            ta_timeout_margin_ns=200 * units.MILLISECOND,
        ),
    )
    cluster = TriadCluster(sim, config)
    cluster.network.drop_probability = drop_probability
    return sim, cluster


class TestPacketLoss:
    def test_calibration_completes_despite_10_percent_loss(self):
        sim, cluster = lossy_cluster(seed=300, drop_probability=0.10)
        sim.run(until=30 * units.SECOND)
        for node in cluster.nodes:
            assert node.clock.calibrated
            assert node.state is NodeState.OK
            # Loss shows up as discarded samples / fetch failures, not death.
            assert abs(node.drift_ns()) < units.MILLISECOND

    def test_untaint_falls_back_to_ta_when_peer_responses_lost(self):
        sim, cluster = lossy_cluster(seed=301, drop_probability=0.0)
        sim.run(until=10 * units.SECOND)
        # From now on, drop most traffic (including peer responses): a
        # round trip survives with probability 0.09, so the node needs
        # many retries before any exchange completes.
        cluster.network.drop_probability = 0.7
        cluster.monitoring_port(1).fire("aex")
        sim.run(until=2 * units.MINUTE)
        node = cluster.node(1)
        # Eventually some TA datagram pair survives and the node recovers.
        assert node.state is NodeState.OK
        assert node.stats.ta_fetch_failures > 0

    def test_monotonicity_preserved_under_loss_and_aex_storm(self):
        sim, cluster = lossy_cluster(seed=302, drop_probability=0.05)
        for core in cluster.monitoring_cores:
            cluster.machine.add_aex_source(core, TriadLikeAexDelays())
        client = TimestampClient(
            sim, cluster.node(1), poll_interval_ns=20 * units.MILLISECOND
        )
        sim.run(until=2 * units.MINUTE)
        assert client.stats.successes > 1000
        assert client.stats.monotonic()


class TestReordering:
    def test_high_jitter_reordering_does_not_confuse_rpc_matching(self):
        """Response/request correlation is id-based, so UDP reordering
        (jitter spanning 0-2 ms) must not corrupt calibration."""
        sim, cluster = lossy_cluster(
            seed=303,
            drop_probability=0.0,
            delay_model=UniformDelay(0, 2 * units.MILLISECOND),
        )
        sim.run(until=30 * units.SECOND)
        true_frequency = cluster.machine.tsc.frequency_hz
        for node in cluster.nodes:
            assert node.clock.calibrated
            # Jitter costs accuracy (ppm-scale) but never correctness.
            error = abs(node.stats.latest_frequency_hz / true_frequency - 1)
            assert error < 0.05


class TestDuplication:
    def test_replayed_peer_response_cannot_retaint_or_double_apply(self):
        """Replaying an old (stale, lower) peer response at an untainted
        node is ignored: gathers are closed after each untaint."""
        sim, cluster = lossy_cluster(seed=304, drop_probability=0.0)
        sent = []
        cluster.network.send = recording(cluster.network.send, sent)
        sim.run(until=10 * units.SECOND)
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("aex")
        sim.run(until=12 * units.SECOND)
        assert node.stats.peer_untaints == 1
        assert len(sent) == cluster.network.sent_count
        # Replay every datagram that ever went to node-1.
        for datagram in list(sent):
            if datagram.destination.host == "node-1":
                cluster.network.send(
                    datagram.source, datagram.destination, datagram.payload
                )
        drift_before = node.drift_ns()
        sim.run(until=14 * units.SECOND)
        assert node.state is NodeState.OK
        assert node.stats.peer_untaints == 1  # no double-apply
        assert abs(node.drift_ns() - drift_before) < units.MILLISECOND


class TestExtremeEnvironments:
    def test_aex_flood_degrades_availability_not_correctness(self):
        """An attacker flooding AEXs (1 kHz) makes the node spend its life
        re-untainting, but timestamps served remain correct and monotonic."""
        from repro.hardware.aex import FixedAexDelays

        sim, cluster = lossy_cluster(seed=305, drop_probability=0.0)
        sim.run(until=5 * units.SECOND)
        cluster.machine.add_aex_source(
            cluster.monitoring_cores[0], FixedAexDelays(units.MILLISECOND), cause="flood"
        )
        client = TimestampClient(
            sim, cluster.node(1), poll_interval_ns=10 * units.MILLISECOND
        )
        sim.run(until=20 * units.SECOND)
        node = cluster.node(1)
        assert node.stats.aex_count > 10_000
        assert client.stats.monotonic()
        served = [t for _, t in client.stats.samples]
        if served:
            assert abs(served[-1] - sim.now) < 10 * units.MILLISECOND

    def test_slow_wan_cluster_still_calibrates(self):
        """A WAN-scale TA (50 ms one-way) inflates the regression offset
        but the slope stays unbiased: calibration within ~1000 ppm."""
        sim, cluster = lossy_cluster(
            seed=306,
            drop_probability=0.0,
            delay_model=ConstantDelay(50 * units.MILLISECOND),
        )
        sim.run(until=60 * units.SECOND)
        true_frequency = cluster.machine.tsc.frequency_hz
        for node in cluster.nodes:
            error = abs(node.stats.latest_frequency_hz / true_frequency - 1)
            assert error < 1e-3
