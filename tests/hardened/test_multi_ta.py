"""Tests for multi-TA deployments and median-based discipline."""

import pytest

from repro.core.cluster import ClusterConfig, TriadCluster
from repro.core.states import NodeState
from repro.hardened.node import HardenedTriadNode
from repro.hardware.tsc import PAPER_TSC_FREQUENCY_HZ
from repro.net.adversary import RuleBasedAdversary
from repro.net.delays import ConstantDelay
from repro.sim import Simulator, units

from tests.hardened.test_node import fast_hardened_config


def build_multi_ta_cluster(seed, ta_count=3, hardened=True):
    sim = Simulator(seed=seed)
    protocol = (
        {"node_class": HardenedTriadNode, "node_config": fast_hardened_config()}
        if hardened
        else {}
    )
    config = ClusterConfig(
        delay_model=ConstantDelay(100 * units.MICROSECOND), ta_count=ta_count, **protocol
    )
    return sim, TriadCluster(sim, config)


class TestWiring:
    def test_multiple_tas_created_with_indexed_names(self):
        sim, cluster = build_multi_ta_cluster(seed=510)
        assert len(cluster.tas) == 3
        assert [ta.name for ta in cluster.tas] == [
            "time-authority-1",
            "time-authority-2",
            "time-authority-3",
        ]
        assert cluster.ta is cluster.tas[0]

    def test_single_ta_keeps_plain_name(self):
        sim, cluster = build_multi_ta_cluster(seed=511, ta_count=1)
        assert cluster.ta.name == "time-authority"

    def test_nodes_know_all_tas_but_not_as_peers(self):
        sim, cluster = build_multi_ta_cluster(seed=512)
        node = cluster.node(1)
        assert node.ta_names == [ta.name for ta in cluster.tas]
        assert set(node.peer_names) == {"node-2", "node-3"}

    def test_zero_tas_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_multi_ta_cluster(seed=513, ta_count=0)

    def test_base_protocol_only_uses_primary_ta(self):
        sim, cluster = build_multi_ta_cluster(seed=514, hardened=False)
        sim.run(until=30 * units.SECOND)
        assert cluster.tas[0].stats.requests_received > 0
        assert cluster.tas[1].stats.requests_received == 0
        assert cluster.tas[2].stats.requests_received == 0


class TestMedianDiscipline:
    def test_all_tas_polled_by_discipline(self):
        sim, cluster = build_multi_ta_cluster(seed=515)
        sim.run(until=20 * units.SECOND)
        for ta in cluster.tas:
            assert ta.stats.requests_received > 0

    def test_one_delayed_ta_cannot_steer_the_clock(self):
        """An attacker delaying one of three TAs from boot poisons that
        TA's delay floor, but the median offset discards its bias."""
        sim, cluster = build_multi_ta_cluster(seed=516)
        adversary = RuleBasedAdversary(sim)
        adversary.delay_flow("time-authority-2", "node-1", 100 * units.MILLISECOND)
        cluster.network.add_adversary(adversary)
        sim.run(until=3 * units.SECOND)
        node = cluster.node(1)
        # Give the discipline something to correct.
        node.clock.set_reference(node.clock.now_unchecked() + 30 * units.MILLISECOND)
        sim.run(until=40 * units.SECOND)
        assert node.state is NodeState.OK
        assert abs(node.drift_ns()) < 5 * units.MILLISECOND
        assert node.hardened_stats.discipline_samples_accepted > 3

    def test_single_ta_node_is_steerable_by_comparison(self):
        """Control: with one TA, the same from-boot delay biases the
        node's offset by ~half the injected delay."""
        sim, cluster = build_multi_ta_cluster(seed=516, ta_count=1)
        adversary = RuleBasedAdversary(sim)
        adversary.delay_flow("time-authority", "node-1", 100 * units.MILLISECOND)
        cluster.network.add_adversary(adversary)
        sim.run(until=40 * units.SECOND)
        node = cluster.node(1)
        # Offset bias ≈ -delay/2 = -50 ms.
        assert node.drift_ns() < -30 * units.MILLISECOND
