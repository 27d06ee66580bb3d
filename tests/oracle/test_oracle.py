"""Unit tests for the invariant oracle's checks, edges, and reporting."""

from types import SimpleNamespace

import pytest

from repro.core.probes import ProbeEvent, ProbeHub
from repro.core.states import NodeState, StateTimeline
from repro.core.untaint import UntaintOutcome
from repro.errors import ConfigurationError
from repro.oracle import (
    InvariantOracle,
    OracleConfig,
    Violation,
    current_policy,
    run_planes,
    watch_cluster,
)
from repro.sim import Simulator, units

from tests.core.conftest import build_cluster


class FakeClock:
    """A clock whose absolute reading the test dials directly."""

    def __init__(self):
        self.calibrated = True
        self.reading_ns = 0

    def now_unchecked(self):
        return self.reading_ns


class FakeNode:
    def __init__(self, sim, name="node-1"):
        self.name = name
        self.probes = ProbeHub()
        self.clock = FakeClock()
        self.state = NodeState.OK


def scan(oracle, node, now_ns, offset_ns=0):
    """Scan at ``now_ns`` with the node's clock off by ``offset_ns``."""
    node.clock.reading_ns = now_ns + offset_ns
    oracle._scan(now_ns)


@pytest.fixture
def sim():
    return Simulator(seed=0)


@pytest.fixture
def rig(sim):
    node = FakeNode(sim)
    oracle = InvariantOracle(sim)
    oracle.watch(node)
    return sim, node, oracle


def serve(node, time_ns, timestamp_ns):
    node.probes.emit(ProbeEvent(time_ns, node.name, "serve", {"timestamp_ns": timestamp_ns}))


def untaint(node, time_ns, source, reference_time_ns, jumped_forward=True):
    outcome = UntaintOutcome(
        time_ns=time_ns,
        source=source,
        old_now_ns=time_ns,
        new_now_ns=reference_time_ns if jumped_forward else time_ns + 1,
        jumped_forward=jumped_forward,
        reference_time_ns=reference_time_ns,
    )
    node.probes.emit(ProbeEvent(time_ns, node.name, "untaint", {"outcome": outcome}))


class TestViolationRecord:
    def test_round_trip(self):
        violation = Violation(
            time_ns=5 * units.SECOND,
            node="node-2",
            invariant="drift-bound",
            detail="true offset +1.000s exceeds bound",
            measured_ns=units.SECOND,
            bound_ns=500 * units.MILLISECOND,
        )
        raw = violation.to_dict()
        assert raw["severity"] == "error"
        assert Violation.from_dict(raw) == violation

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ConfigurationError):
            Violation(time_ns=0, node="node-1", invariant="bogus")


class TestMonotonicity:
    def test_increasing_serves_pass(self, rig):
        _sim, node, oracle = rig
        for step in (1, 2, 3):
            serve(node, step, 1000 * step)
        assert oracle.violations == []

    def test_repeat_and_regression_flagged(self, rig):
        _sim, node, oracle = rig
        serve(node, 1, 1000)
        serve(node, 2, 1000)  # equal: violates strict monotonicity
        serve(node, 3, 900)  # regression
        keys = [v.key for v in oracle.violations]
        assert keys == [("node-1", "monotonicity")] * 2
        assert oracle.violations[0].severity == "critical"

    def test_per_key_cap_suppresses(self, sim):
        node = FakeNode(sim)
        oracle = InvariantOracle(sim, OracleConfig(max_violations_per_key=2))
        oracle.watch(node)
        serve(node, 1, 1000)
        for step in range(2, 7):
            serve(node, step, 1000)  # five repeats, cap is two
        assert len(oracle.violations) == 2
        assert oracle.suppressed == 3


class TestDriftAndSoundness:
    def test_in_bound_clock_is_silent(self, rig):
        _sim, node, oracle = rig
        scan(oracle, node, units.SECOND, offset_ns=100 * units.MILLISECOND)
        assert oracle.violations == []

    def test_out_of_bound_fires_both_edges_once(self, rig):
        _sim, node, oracle = rig
        scan(oracle, node, units.SECOND, offset_ns=units.SECOND)
        scan(oracle, node, 2 * units.SECOND, offset_ns=units.SECOND)  # edge already fired
        assert sorted(v.invariant for v in oracle.violations) == [
            "drift-bound",
            "state-soundness",
        ]

    def test_edge_rearms_after_recovery(self, rig):
        _sim, node, oracle = rig
        scan(oracle, node, units.SECOND, offset_ns=units.SECOND)
        scan(oracle, node, 2 * units.SECOND)  # recovered
        scan(oracle, node, 3 * units.SECOND, offset_ns=-units.SECOND)  # broken again
        drift_violations = [v for v in oracle.violations if v.invariant == "drift-bound"]
        assert len(drift_violations) == 2

    def test_non_ok_state_is_drift_only(self, rig):
        _sim, node, oracle = rig
        node.state = NodeState.TAINTED
        scan(oracle, node, units.SECOND, offset_ns=units.SECOND)
        assert [v.invariant for v in oracle.violations] == ["drift-bound"]

    def test_uncalibrated_clock_is_skipped(self, rig):
        _sim, node, oracle = rig
        node.clock.calibrated = False
        scan(oracle, node, units.SECOND, offset_ns=10 * units.SECOND)
        assert oracle.violations == []


class TestFreshness:
    def test_disabled_by_default(self, rig):
        _sim, node, oracle = rig
        scan(oracle, node, 3600 * units.SECOND)
        assert all(v.invariant != "freshness" for v in oracle.violations)

    def test_deadline_violation_and_rearm(self, sim):
        node = FakeNode(sim)
        oracle = InvariantOracle(sim, OracleConfig(freshness_deadline_ns=10 * units.SECOND))
        oracle.watch(node)
        scan(oracle, node, 11 * units.SECOND)
        assert [v.invariant for v in oracle.violations] == ["freshness"]
        # A calibration refreshes the node and re-arms the edge.
        node.probes.emit(
            ProbeEvent(12 * units.SECOND, node.name, "calibration", {"frequency_hz": 2.9e9})
        )
        scan(oracle, node, 13 * units.SECOND)
        assert len(oracle.violations) == 1


class TestUntaintSafety:
    def test_adopting_far_peer_reference_flagged(self, rig):
        _sim, node, oracle = rig
        now = 10 * units.SECOND
        untaint(node, now, "peer:node-2", now + 2 * units.SECOND)
        assert [v.invariant for v in oracle.violations] == ["untaint-safety"]

    def test_adopting_near_reference_passes(self, rig):
        _sim, node, oracle = rig
        now = 10 * units.SECOND
        untaint(node, now, "peer:node-2", now + 50 * units.MILLISECOND)
        assert oracle.violations == []

    def test_rejected_peer_reading_is_not_adoption(self, rig):
        _sim, node, oracle = rig
        now = 10 * units.SECOND
        # A peer far *behind* is never adopted (minimal bump only), so the
        # policy was safe even though the reading was bad.
        untaint(node, now, "peer:node-2", now - 2 * units.SECOND, jumped_forward=False)
        assert oracle.violations == []

    def test_authority_reference_is_trust_root(self, rig):
        _sim, node, oracle = rig
        now = 10 * units.SECOND
        untaint(node, now, "authority", now + 2 * units.SECOND)
        assert oracle.violations == []

    def test_chimer_clique_adoption_is_judged(self, rig):
        _sim, node, oracle = rig
        now = 10 * units.SECOND
        untaint(node, now, "chimer-clique", now + 2 * units.SECOND, jumped_forward=False)
        assert [v.invariant for v in oracle.violations] == ["untaint-safety"]

    def test_untaint_counts_as_refresh(self, sim):
        node = FakeNode(sim)
        oracle = InvariantOracle(sim, OracleConfig(freshness_deadline_ns=10 * units.SECOND))
        oracle.watch(node)
        untaint(node, 8 * units.SECOND, "peer:node-2", 8 * units.SECOND)
        scan(oracle, node, 9 * units.SECOND)  # 1s since refresh: fresh
        assert oracle.violations == []


class TestRecoveryDeadline:
    """Judged once, from the state timelines, by the first event past
    last heal + deadline — not by the next interval scan."""

    @staticmethod
    def _rig(sim):
        oracle = InvariantOracle(sim)  # scans every 1 s: one lands on the deadline
        nodes = [FakeNode(sim, name) for name in ("node-1", "node-2")]
        for node in nodes:
            node.clock.calibrated = False  # only the recovery contract is judged
            node.timeline = StateTimeline(0, NodeState.FULL_CALIB)
            oracle.watch(node)
        oracle.expect_recovery(heal_ns=units.SECOND, deadline_ns=units.SECOND)
        return oracle, nodes

    def test_ok_at_the_deadline_instant_counts(self, sim):
        oracle, (late, punctual) = self._rig(sim)

        def events():
            yield sim.timeout(units.SECOND)
            yield sim.timeout(units.SECOND)
            yield sim.timeout(0)  # a second event at the deadline instant
            punctual.timeline.record(sim.now, NodeState.OK)
            yield sim.timeout(1)

        sim.process(events())
        sim.run(until=2 * units.SECOND + 1)
        assert [(v.node, v.invariant, v.time_ns) for v in oracle.violations] == [
            ("node-1", "recovery", 2 * units.SECOND)
        ]
        oracle.finalize()
        assert len(oracle.violations) == 1

    def test_run_ending_at_the_deadline_is_judged_by_finalize(self, sim):
        oracle, _ = self._rig(sim)
        sim.run(until=2 * units.SECOND)
        assert oracle.violations == []
        assert [v.node for v in oracle.finalize()] == ["node-1", "node-2"]


class TestFinalizeAndReport:
    def test_finalize_is_idempotent_and_allowance_accumulates(self, rig):
        _sim, node, oracle = rig
        node.clock.reading_ns = units.SECOND
        oracle.allow({("node-1", "drift-bound")})
        oracle.finalize()
        before = list(oracle.violations)
        oracle.allow({("node-1", "state-soundness")})  # a later cause adds, never replaces
        oracle.finalize()
        assert oracle.violations == before
        assert oracle.allowed == {("node-1", "drift-bound"), ("node-1", "state-soundness")}
        assert oracle.unexpected_violations() == []

    def test_wildcard_expectation_covers_any_node(self, rig):
        _sim, node, oracle = rig
        node.clock.reading_ns = units.SECOND
        oracle.allow({("*", "drift-bound"), ("*", "state-soundness")})
        oracle.finalize()
        assert oracle.unexpected_violations() == []

    def test_unexpected_violations_surface(self, rig):
        _sim, node, oracle = rig
        node.clock.reading_ns = units.SECOND
        oracle.finalize()
        assert {v.key for v in oracle.unexpected_violations()} == {
            ("node-1", "drift-bound"),
            ("node-1", "state-soundness"),
        }

    def test_task_name_grants_nothing(self, sim):
        """Only a cause calling ``allow`` excuses a violation: a bare oracle
        under a sweep point's task name is judged like any other."""

        def violating_run():
            node = FakeNode(sim, name="node-3")
            oracle = current_policy().attach(SimpleNamespace(sim=sim, nodes=[node]))[0]
            node.clock.reading_ns = units.SECOND
            return oracle

        run = run_planes(violating_run, oracle="strict", name="attack-delay/10ms")
        assert run.value.violations  # drift-bound + state-soundness on node-3
        assert run.value.allowed == set()
        assert run.failure is not None

    def test_render_report(self, rig):
        _sim, node, oracle = rig
        assert oracle.render_report() == "oracle: no violations"
        node.clock.reading_ns = units.SECOND
        oracle.allow({("node-1", "drift-bound")})
        oracle.finalize()
        report = oracle.render_report()
        assert "2 violation(s)" in report
        assert "drift-bound" in report
        assert "UNEXPECTED" in report  # state-soundness is outside the set
        assert "!" in report

    def test_detach_stops_observation(self, rig):
        _sim, node, oracle = rig
        serve(node, 1, 1000)
        oracle.detach()
        serve(node, 2, 900)  # regression after detach: unobserved
        assert oracle.violations == []


class TestWatchCluster:
    def test_benign_cluster_run_is_violation_free(self):
        sim, cluster = build_cluster(seed=31)
        oracle = watch_cluster(sim, cluster.nodes)
        sim.run(until=15 * units.SECOND)
        cluster.monitoring_port(1).fire("test")  # taint/untaint cycle
        sim.run(until=20 * units.SECOND)
        oracle.finalize()
        assert oracle.violations == []
        assert oracle.node_names == ["node-1", "node-2", "node-3"]

    def test_oracle_does_not_perturb_the_run(self):
        """Oracle on vs off: identical clock trajectories (observational)."""

        def fingerprint(with_oracle):
            sim, cluster = build_cluster(seed=32)
            if with_oracle:
                watch_cluster(sim, cluster.nodes)
            sim.run(until=10 * units.SECOND)
            cluster.monitoring_port(2).fire("probe")
            sim.run(until=15 * units.SECOND)
            return tuple(
                (node.clock.now_unchecked(), node.stats.aex_count) for node in cluster.nodes
            )

        assert fingerprint(True) == fingerprint(False)

    def test_silent_miscalibration_detected(self):
        """A wrong TSC scale breaks the clock while the state stays OK."""
        sim, cluster = build_cluster(seed=33, monitor_interval_ns=30 * units.SECOND)
        oracle = watch_cluster(sim, cluster.nodes)
        sim.run(until=5 * units.SECOND)
        cluster.machine.tsc.apply_offset(-6_000_000_000)  # ~2s at 2.9GHz
        sim.run(until=8 * units.SECOND)
        oracle.finalize()
        assert ("node-1", "drift-bound") in oracle.violation_set()
        assert ("node-1", "state-soundness") in oracle.violation_set()
