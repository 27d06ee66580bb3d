"""End-to-end integration tests: the paper's headline claims, in miniature.

Each test runs a complete protocol deployment (kernel + hardware + network
+ TA + nodes + attacker) for a short duration and asserts the qualitative
result the corresponding paper experiment demonstrates.
"""

import pytest

from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.core.api import TimestampClient
from repro.core.cluster import ClusterConfig, TA_NAME, TriadCluster
from repro.core.node import TriadNodeConfig
from repro.core.states import NodeState
from repro.experiments import scenarios
from repro.hardware.aex import TriadLikeAexDelays
from repro.sim import Simulator, units


class TestFaultFreeOperation:
    def test_cluster_survives_triad_like_aex_storm(self):
        experiment = scenarios.scenario_spec("fig2-fault-free-triad-like", 201).build()
        experiment.run(60 * units.SECOND)
        for index in (1, 2, 3):
            node = experiment.node(index)
            assert node.state is NodeState.OK or node.state is NodeState.TAINTED
            assert node.stats.aex_count > 50
            assert node.stats.peer_untaints > 40
            # Initial calibration (1 s-sleep exchanges repeatedly cut short
            # by Triad-like AEXs) dominates a 60 s window; longer paper-
            # scale runs exceed 98% (asserted in the benchmarks).
            assert experiment.availability(index) > 0.8

    def test_drift_follows_fastest_clock(self):
        """§IV-A2: the node that most underestimates F drags everyone."""
        experiment = scenarios.scenario_spec("fig2-fault-free-triad-like", 202).build()
        experiment.run(10 * units.MINUTE)
        frequencies = [experiment.node(i).stats.latest_frequency_hz for i in (1, 2, 3)]
        slowest_estimate = min(frequencies)
        true_frequency = experiment.cluster.machine.tsc.frequency_hz
        expected_rate = (true_frequency / slowest_estimate - 1) * 1e9  # ns per s
        # Sample drift over a reset-free stretch and compare slopes.
        series = experiment.drift(1).samples
        window = [(t, d) for t, d in series if t > 2 * units.MINUTE]
        from repro.analysis.stats import drift_rate_ppm

        if len(window) > 30:
            measured_ppm = drift_rate_ppm(window)
            expected_ppm = expected_rate / 1000
            # Sawtooth resets add noise; direction and order must agree.
            assert measured_ppm == pytest.approx(expected_ppm, rel=0.8)

    def test_long_run_availability_exceeds_99_percent(self):
        experiment = scenarios.scenario_spec("fig3-fault-free-low-aex", 203).build()
        experiment.run(units.HOUR)
        for index in (1, 2, 3):
            assert experiment.availability(index) > 0.99


class TestFPlusEndToEnd:
    def test_victim_slow_clock_does_not_propagate(self):
        experiment = scenarios.scenario_spec("fig5-fplus-triad-like", 204).build()
        experiment.run(4 * units.MINUTE)
        # Victim oscillates negative; honest nodes stay near zero.
        assert experiment.drift(3).final_drift_ns() < -10 * units.MILLISECOND
        for index in (1, 2):
            assert abs(experiment.drift(index).final_drift_ns()) < 60 * units.MILLISECOND

    def test_low_aex_victim_drifts_unbounded(self):
        experiment = scenarios.scenario_spec("fig4-fplus-low-aex", 205).build()
        experiment.run(4 * units.MINUTE)
        drift = experiment.drift(3).final_drift_ns()
        assert drift < -5 * units.SECOND  # ~-91 ms/s, rarely corrected

    def test_attack_does_not_hurt_victim_availability(self):
        """§IV-B: fewer AEXs mean *higher* availability for the victim."""
        experiment = scenarios.scenario_spec("fig4-fplus-low-aex", 206).build()
        experiment.run(4 * units.MINUTE)
        assert experiment.availability(3) >= experiment.availability(1)


class TestFMinusPropagationEndToEnd:
    def test_single_compromised_node_infects_all_honest_nodes(self):
        experiment = scenarios.fminus_propagation(
            seed=207, switch_at_ns=60 * units.SECOND
        )
        experiment.run(3 * units.MINUTE)
        for index in (1, 2):
            drift = experiment.drift(index).final_drift_ns()
            assert drift > units.SECOND, (
                f"node-{index} should have been dragged forward, drift={drift}"
            )

    def test_infected_nodes_keep_serving_monotonic_timestamps(self):
        experiment = scenarios.fminus_propagation(
            seed=208, switch_at_ns=30 * units.SECOND
        )
        client = TimestampClient(
            experiment.sim,
            experiment.node(1),
            poll_interval_ns=50 * units.MILLISECOND,
            start_delay_ns=10 * units.SECOND,
        )
        experiment.run(2 * units.MINUTE)
        assert client.stats.successes > 1000
        assert client.stats.monotonic()

    def test_infection_spreads_node_to_node(self):
        """Node 2 can be infected via node 1 even if it never talks to
        node 3 — remove the node2<->node3 link by dropping that traffic."""
        from repro.net.adversary import RuleBasedAdversary

        experiment = scenarios.fminus_propagation(seed=209, switch_at_ns=30 * units.SECOND)
        isolator = RuleBasedAdversary(experiment.sim)
        isolator.drop_flow("node-3", "node-2")
        isolator.drop_flow("node-2", "node-3")
        experiment.cluster.network.add_adversary(isolator)
        experiment.run(3 * units.MINUTE)
        assert experiment.drift(1).final_drift_ns() > units.SECOND
        # Node 2 still gets dragged forward — through node 1.
        assert experiment.drift(2).final_drift_ns() > units.SECOND


class TestHardenedEndToEnd:
    def test_hardening_stops_propagation(self):
        baseline = scenarios.fminus_propagation(seed=210, switch_at_ns=30 * units.SECOND)
        baseline.run(2 * units.MINUTE)
        hardened = scenarios.hardened_fminus_propagation(
            seed=210, switch_at_ns=30 * units.SECOND
        )
        hardened.run(2 * units.MINUTE)
        for index in (1, 2):
            assert baseline.drift(index).final_drift_ns() > units.SECOND
            assert abs(hardened.drift(index).final_drift_ns()) < 100 * units.MILLISECOND

    def test_deadlines_bound_fplus_drift_without_aexs(self):
        baseline = scenarios.scenario_spec("baseline-fplus-suppressed-aex", 211).build()
        baseline.run(2 * units.MINUTE)
        hardened = scenarios.scenario_spec("hardened-fplus-suppressed-aex", 211).build()
        hardened.run(2 * units.MINUTE)
        baseline_drift = abs(baseline.drift(3).final_drift_ns())
        hardened_drift = abs(hardened.drift(3).final_drift_ns())
        assert baseline_drift > 5 * units.SECOND
        assert hardened_drift < baseline_drift / 10


class TestMixedDeployment:
    def test_five_node_cluster_works(self):
        sim = Simulator(seed=212)
        config = ClusterConfig(
            node_count=5,
            node_config=TriadNodeConfig(
                calibration_rounds=1,
                calibration_sleeps_ns=(0, 200 * units.MILLISECOND),
            ),
        )
        cluster = TriadCluster(sim, config)
        for core in cluster.monitoring_cores:
            cluster.machine.add_aex_source(core, TriadLikeAexDelays())
        sim.run(until=30 * units.SECOND)
        for node in cluster.nodes:
            assert node.clock.calibrated
            assert node.stats.peer_untaints > 5

    def test_fminus_against_five_node_cluster_still_propagates(self):
        sim = Simulator(seed=213)
        config = ClusterConfig(
            node_count=5,
            node_config=TriadNodeConfig(calibration_rounds=1),
        )
        cluster = TriadCluster(sim, config)
        for core in cluster.monitoring_cores:
            cluster.machine.add_aex_source(core, TriadLikeAexDelays())
        attacker = CalibrationDelayAttacker(
            sim, victim_host="node-5", ta_host=TA_NAME, mode=AttackMode.F_MINUS
        )
        cluster.network.add_adversary(attacker)
        sim.run(until=2 * units.MINUTE)
        # Majority honest does not help the original protocol: max wins.
        for index in (1, 2, 3, 4):
            assert cluster.node(index).drift_ns() > 500 * units.MILLISECOND
