"""Unit tests for the verdict ladder, churn sync, and policy plumbing."""

import pytest

from repro.core.cluster import ClusterConfig, TriadCluster
from repro.errors import ConfigurationError
from repro.membership import (
    MembershipConfig,
    MembershipController,
    MembershipVerdict,
    render_report,
)
from repro.oracle.policy import current_policy, plane_policy
from repro.sim.kernel import Simulator

DIRTY = 40_000_000  # > suspect threshold (25 ms)
NEUTRAL = 15_000_000  # between thresholds
CLEAN = 1_000_000  # < clear threshold (10 ms)


def make_controller(mode="observe", config=None, node_count=3, absent=()):
    sim = Simulator(seed=1)
    cluster = TriadCluster(
        sim, ClusterConfig(node_count=node_count, initial_absent=tuple(absent))
    )
    return MembershipController(cluster, config=config, mode=mode)


def close(controller, scores):
    """Drive one epoch close with synthetic per-node scores."""
    controller.epoch += 1
    for node in controller.cluster.nodes:
        controller._transition(node.name, scores.get(node.name))


class TestLadder:
    def test_everyone_starts_active(self):
        controller = make_controller()
        assert all(
            controller.verdict(node.name) is MembershipVerdict.ACTIVE
            for node in controller.cluster.nodes
        )

    def test_one_dirty_epoch_makes_a_suspect_not_a_quarantine(self):
        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.SUSPECT
        assert controller.verdict("node-1") is MembershipVerdict.ACTIVE

    def test_sustained_dirt_quarantines(self):
        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.QUARANTINED

    def test_suspect_clears_back_to_active(self):
        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        close(controller, {"node-3": CLEAN})
        assert controller.verdict("node-3") is MembershipVerdict.ACTIVE
        # ...and the dirty streak reset: the next dirty epoch is a fresh
        # suspicion, not an immediate quarantine.
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.SUSPECT

    def test_neutral_band_neither_advances_nor_clears(self):
        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        close(controller, {"node-3": NEUTRAL})
        assert controller.verdict("node-3") is MembershipVerdict.SUSPECT
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.QUARANTINED

    def test_no_evidence_is_neutral(self):
        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        close(controller, {})  # node never served this epoch
        assert controller.verdict("node-3") is MembershipVerdict.SUSPECT

    def test_quarantine_after_one_skips_suspect(self):
        controller = make_controller(config=MembershipConfig(quarantine_after=1))
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.QUARANTINED

    def test_clean_quarantine_reaches_probation_then_readmission(self):
        controller = make_controller()
        for _ in range(2):
            close(controller, {"node-3": DIRTY})
        for _ in range(2):
            close(controller, {"node-3": CLEAN})
        assert controller.verdict("node-3") is MembershipVerdict.PROBATION
        for _ in range(2):
            close(controller, {"node-3": CLEAN})
        assert controller.verdict("node-3") is MembershipVerdict.ACTIVE

    def test_probation_relapse_requarantines(self):
        controller = make_controller()
        for _ in range(2):
            close(controller, {"node-3": DIRTY})
        for _ in range(2):
            close(controller, {"node-3": CLEAN})
        close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.QUARANTINED

    def test_stale_quarantine_evicts(self):
        controller = make_controller()
        for _ in range(2):
            close(controller, {"node-3": DIRTY})
        for _ in range(6):  # evict_after epochs without clearing
            close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.EVICTED

    def test_eviction_is_terminal(self):
        controller = make_controller()
        for _ in range(8):
            close(controller, {"node-3": DIRTY})
        assert controller.verdict("node-3") is MembershipVerdict.EVICTED
        for _ in range(5):
            close(controller, {"node-3": CLEAN})
        assert controller.verdict("node-3") is MembershipVerdict.EVICTED

    def test_unknown_node_raises(self):
        controller = make_controller()
        with pytest.raises(ConfigurationError):
            controller.verdict("node-99")


class TestChurnSync:
    def test_initially_absent_node_is_absent(self):
        controller = make_controller(node_count=4, absent=(4,))
        assert controller.verdict("node-4") is MembershipVerdict.ABSENT

    def test_join_enters_on_probation(self):
        controller = make_controller(node_count=4, absent=(4,))
        controller.cluster.join(4)
        controller._sync_churn(set(controller.cluster.present_names))
        assert controller.verdict("node-4") is MembershipVerdict.PROBATION

    def test_leave_flips_to_absent_and_resets_history(self):
        controller = make_controller()
        close(controller, {"node-2": DIRTY})
        controller.cluster.leave(2)
        controller._sync_churn(set(controller.cluster.present_names))
        assert controller.verdict("node-2") is MembershipVerdict.ABSENT
        # On rejoin the node goes through probation with a clean slate.
        controller.cluster.join(2)
        controller._sync_churn(set(controller.cluster.present_names))
        assert controller.verdict("node-2") is MembershipVerdict.PROBATION
        assert controller._dirty_streak["node-2"] == 0

    def test_evicted_nodes_do_not_resurface_as_absent(self):
        controller = make_controller()
        for _ in range(8):
            close(controller, {"node-3": DIRTY})
        controller.cluster.leave(3)
        controller._sync_churn(set(controller.cluster.present_names))
        assert controller.verdict("node-3") is MembershipVerdict.EVICTED


class TestReport:
    def test_report_is_json_plain_and_sorted(self):
        import json

        controller = make_controller()
        close(controller, {"node-3": DIRTY})
        report = controller.report()
        assert json.loads(json.dumps(report)) == report
        assert list(report["verdicts"]) == sorted(report["verdicts"])
        assert report["events"][0]["verdict"] == "suspect"
        text = render_report(report)
        assert "suspect" in text and "mode=observe" in text

    def test_render_handles_the_quiet_run(self):
        controller = make_controller()
        assert "no verdict changes" in render_report(controller.report())


class TestPolicy:
    def test_policy_off_attaches_nothing(self):
        sim = Simulator(seed=1)
        cluster = TriadCluster(sim, ClusterConfig(node_count=3))
        assert cluster.membership is None

    def test_policy_attaches_and_drains(self):
        with plane_policy(membership="observe") as scope:
            sim = Simulator(seed=1)
            cluster = TriadCluster(sim, ClusterConfig(node_count=3))
            assert cluster.membership is not None
            assert cluster.membership.mode == "observe"
            assert scope.drain() == ([], [cluster.membership])
            assert scope.drain() == ([], [])

    def test_context_manager_restores_previous_policy(self):
        assert current_policy().membership == "off"
        with plane_policy(membership="enforce"):
            assert current_policy().membership == "enforce"
        assert current_policy().membership == "off"

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            with plane_policy(membership="audit"):
                pass
        with pytest.raises(ConfigurationError):
            make_controller(mode="off")
