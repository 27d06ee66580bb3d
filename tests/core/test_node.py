"""Tests for the Triad node protocol: calibration, taint, untaint, serving."""

import pytest

from repro.core.node import NodeUnavailable
from repro.core.states import NodeState
from repro.sim import units

from tests.core.conftest import build_cluster


class TestInitialCalibration:
    def test_nodes_reach_ok_after_full_calibration(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.state is NodeState.OK
            assert node.clock.calibrated

    def test_exactly_one_full_calibration_without_faults(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.timeline.count_stays(NodeState.FULL_CALIB) == 1
            assert len(node.stats.full_calibrations) == 1

    def test_constant_delay_calibration_is_exact(self, quiet_cluster):
        """With zero jitter the regression recovers F_tsc exactly."""
        sim, cluster = quiet_cluster
        true_frequency = cluster.machine.tsc.frequency_hz
        for node in cluster.nodes:
            # Sub-ppm accuracy (integer TSC reads leave ~ns quantization).
            assert node.stats.latest_frequency_hz == pytest.approx(true_frequency, rel=1e-7)

    def test_initial_ta_reference_adopted(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.stats.ta_references == 1
            assert abs(node.drift_ns()) < units.MILLISECOND


class TestServing:
    def test_get_timestamp_when_ok(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        timestamp = node.get_timestamp()
        assert abs(timestamp - sim.now) < units.MILLISECOND
        assert node.stats.timestamps_served == 1

    def test_timestamps_strictly_monotonic(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        first = node.get_timestamp()
        second = node.get_timestamp()
        assert second > first

    def test_unavailable_while_tainted(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        assert node.state is NodeState.TAINTED
        with pytest.raises(NodeUnavailable):
            node.get_timestamp()
        assert node.try_get_timestamp() is None


class TestAexHandling:
    def test_aex_taints_node(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        assert node.clock.tainted
        assert node.stats.aex_count == 1

    def test_aex_on_other_core_does_not_taint(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.machine.port(10).fire("elsewhere")
        assert not node.clock.tainted

    def test_peer_untaint_after_aex(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        sim.run(until=sim.now + units.SECOND)
        assert node.state is NodeState.OK
        assert node.stats.peer_untaints == 1
        assert node.stats.ta_references == 1  # no extra TA contact

    def test_simultaneous_aex_forces_ta_refcalib(self, quiet_cluster):
        """All peers tainted at once: nobody answers, the TA must."""
        sim, cluster = quiet_cluster
        for index in (1, 2, 3):
            cluster.monitoring_port(index).fire("correlated")
        sim.run(until=sim.now + units.SECOND)
        for node in cluster.nodes:
            assert node.state is NodeState.OK
            assert node.stats.ta_references == 2  # initial + this refcalib
            assert node.stats.peer_untaints == 0

    def test_tainted_node_does_not_answer_peers(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node2 = cluster.node(2)
        # Taint node 2, then node 1: node 1 should only hear from node 3.
        cluster.monitoring_port(2).fire("first")
        cluster.monitoring_port(1).fire("second")
        sim.run(until=sim.now + units.SECOND)
        assert node2.stats.peer_requests_ignored_tainted >= 1

    def test_repeated_aexs_handled(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        for _ in range(5):
            cluster.monitoring_port(1).fire("again")
            sim.run(until=sim.now + units.SECOND)
        assert node.state is NodeState.OK
        assert node.stats.peer_untaints == 5


class TestMonitorIntegration:
    def test_tsc_scale_attack_triggers_full_recalibration(self):
        sim, cluster = build_cluster(seed=21)
        sim.run(until=5 * units.SECOND)
        node = cluster.node(1)
        assert len(node.stats.full_calibrations) == 1
        cluster.machine.tsc.set_scale(1.05)
        sim.run(until=sim.now + 20 * units.SECOND)
        assert node.stats.monitor_alerts >= 1
        assert len(node.stats.full_calibrations) >= 2

    def test_monitor_silent_without_manipulation(self, quiet_cluster):
        sim, cluster = quiet_cluster
        sim.run(until=sim.now + 30 * units.SECOND)
        for node in cluster.nodes:
            assert node.stats.monitor_alerts == 0


class TestCalibrationRobustness:
    def test_aex_during_calibration_discards_sample(self):
        sim, cluster = build_cluster(seed=22)
        node = cluster.node(1)

        def disturber():
            # Fire AEXs early enough to land inside calibration exchanges
            # (monitor calibration takes ~20 ms, each exchange ~100 ms).
            for _ in range(3):
                yield sim.timeout(40 * units.MILLISECOND)
                cluster.monitoring_port(1).fire("calib-disturb")

        sim.process(disturber())
        sim.run(until=10 * units.SECOND)
        assert node.stats.calibration_samples_discarded >= 1
        assert node.clock.calibrated  # calibration still completed

    def test_node_identity_helpers(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        assert node.name == "node-1"
        assert sorted(node.peer_names) == ["node-2", "node-3"]


class _RecordingPending(dict):
    """A node's ``_pending`` table that keeps every waiter put in it."""

    def __init__(self):
        super().__init__()
        self.waiters = []

    def __setitem__(self, request_id, waiter):
        self.waiters.append(waiter)
        super().__setitem__(request_id, waiter)


class TestCrashRestart:
    def test_first_ta_response_after_restart_reaches_its_waiter(self, quiet_cluster):
        """A crash once left the interrupted message loop's receive pending
        on the endpoint, and after the restart it swallowed the first
        datagram: the TA's answer to the first calibration exchange, which
        then timed out."""
        sim, cluster = quiet_cluster
        node = cluster.node(2)
        cluster.crash_node(2)
        sim.run(until=sim.now + 500 * units.MILLISECOND)
        node._pending = pending = _RecordingPending()
        cluster.restart_node(2)
        sim.run(until=sim.now + 5 * units.SECOND)
        assert node.state is NodeState.OK
        # Two calibration exchanges and one reference fetch, none retried.
        assert len(pending.waiters) == 3
        assert all(waiter.triggered for waiter in pending.waiters)
        assert node.stats.calibration_samples_discarded == 0
        assert node.stats.ta_fetch_failures == 0


def _run_until_ok(sim, node):
    while node.state is not NodeState.OK:
        sim.run(until=sim.now + units.MILLISECOND)


class TestRateRefinement:
    def test_background_calibration_replaces_the_rate(self):
        sim, cluster = build_cluster(seed=20, refine_rate=True)
        sim.run(until=5 * units.SECOND)
        for node in cluster.nodes:
            assert node.state is NodeState.OK
            assert node.timeline.count_stays(NodeState.FULL_CALIB) == 1
            (calibrated_at, _), (refined_at, refined) = node.stats.full_calibrations
            assert refined_at > calibrated_at
            assert node.clock.frequency_hz == refined
            assert not node.refine_process.is_alive

    def test_crash_stops_the_refinement(self):
        sim, cluster = build_cluster(seed=20, refine_rate=True)
        node = cluster.node(2)
        _run_until_ok(sim, node)
        refine = node.refine_process
        assert refine.is_alive
        cluster.crash_node(2)
        sim.run(until=sim.now + units.SECOND)
        assert not refine.is_alive
        assert len(node.stats.full_calibrations) == 1
        assert not node._pending

    def test_a_new_full_calibration_supersedes_the_refinement(self):
        sim, cluster = build_cluster(seed=20, refine_rate=True)
        node = cluster.node(1)
        _run_until_ok(sim, node)
        first = node.refine_process
        node._monitor_alert = True
        node._signal_wake()
        sim.run(until=sim.now + 5 * units.SECOND)
        assert not first.is_alive
        assert node.refine_process is not first
        assert node.timeline.count_stays(NodeState.FULL_CALIB) == 2
        # Two full calibrations, and only the second one's refinement.
        assert len(node.stats.full_calibrations) == 3
