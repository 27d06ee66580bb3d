"""Pinned headline: quarantine contains F− before honest nodes go out of bound.

The fig-6 propagation scenario with the honest AEX onset pulled forward to
t = 3 s is the worst case for the control plane: the attacker's skew starts
propagating through max-rule adoption within epochs of detection. In
``enforce`` mode the engine must win that race — quarantine node 3 and
cryptographically cut it off before a majority of honest nodes is dragged
past the oracle's 500 ms drift bound. The ``observe`` contrast run shows
what losing looks like: the same schedule drags every honest node out of
bound within seconds of the onset.
"""

import pytest

from repro.experiments.scenarios import fminus_propagation, scenario_spec
from repro.membership import MembershipVerdict
from repro.oracle.policy import plane_policy
from repro.sim.units import MILLISECOND, SECOND

DRIFT_BOUND_NS = 500 * MILLISECOND


def _propagation(mode: str, duration_s: int):
    with plane_policy(membership=mode):
        experiment = fminus_propagation(seed=6, switch_at_ns=3 * SECOND)
        experiment.run(duration_s * SECOND)
    return experiment


class TestEnforceContainment:
    def test_attacker_is_quarantined_then_evicted(self):
        experiment = _propagation("enforce", 40)
        report = experiment.membership.report()
        quarantines = [
            event
            for event in report["events"]
            if event["node"] == "node-3" and event["verdict"] == "quarantined"
        ]
        assert quarantines, f"node-3 never quarantined: {report['events']}"
        # Containment must land within the first 8 epochs (8 s) — well
        # before the ~12 s point where observe mode loses the cluster.
        assert quarantines[0]["epoch"] <= 8
        assert report["verdicts"]["node-3"] == "evicted"

    def test_honest_majority_stays_in_bound(self):
        experiment = _propagation("enforce", 40)
        for index in (1, 2):
            drift = experiment.drift(index).max_abs_drift_ns()
            assert drift < DRIFT_BOUND_NS, (
                f"node-{index} dragged out of bound: {drift / 1e6:.1f} ms"
            )

    def test_epoch_keys_actually_rotated(self):
        experiment = _propagation("enforce", 40)
        report = experiment.membership.report()
        assert report["mode"] == "enforce"
        assert report["rotations"] >= 1
        # The quarantined node's links are on an older epoch than the
        # honest nodes', which is exactly what cuts it off.
        honest = experiment.node(1)
        assert honest.endpoint.peer_epoch("node-2") >= 1


class TestObserveContrast:
    def test_without_enforcement_the_cascade_wins(self):
        experiment = _propagation("observe", 40)
        report = experiment.membership.report()
        # Detection still fires (the verdict ladder runs)...
        assert any(
            event["node"] == "node-3" and event["verdict"] == "quarantined"
            for event in report["events"]
        )
        assert report["rotations"] == 0
        # ...but without the key cut, every honest node is dragged out of
        # the oracle's drift bound by the max-rule cascade.
        for index in (1, 2):
            assert experiment.drift(index).max_abs_drift_ns() > DRIFT_BOUND_NS


class TestProbationCredit:
    """Pin the 5-node false-eviction race (docs/membership.md): node 5
    honestly adopts the attacker's timestamps before the key cut lands, is
    correctly-by-evidence quarantined, then *repairs itself* — here via a
    crash-restart cold recalibration mid-quarantine. With a wall-epoch
    eviction clock the ``evict_after`` deadline expires while the node is
    down and recalibrating (serving nothing, convicting nobody) and the
    repaired node is evicted. Probation credit makes the clock adaptive —
    dirty epochs age, clean epochs refund, neutral epochs pause — so the
    honest repairer survives while the attacker's eviction is unchanged.

    The fault-recovery bootstrap calibrates in about a second, so node 3
    is cut off at t = 3 s: node 5 alone takes AEXs from t = 1 s (and so
    adopts node 3's timestamps before the cut), the other honest nodes
    from t = 4 s, and node 5 crashes 3 s into its quarantine."""

    def _race(self, probation_credit: bool):
        from repro.experiments.spec import ExperimentSpec
        from repro.oracle.policy import oracle_policy

        spec = ExperimentSpec(
            name="membership-false-eviction-race",
            seed=6,
            duration_s=30.0,
            nodes=5,
            environments={index: "triad-like" for index in range(1, 6)},
            attacks=[
                {"type": "fminus", "victim": 3, "delay_ms": 100},
                {"type": "aex-onset", "nodes": [5], "at_s": 1},
                {"type": "aex-onset", "nodes": [1, 2, 4], "at_s": 4},
            ],
            membership={
                "mode": "enforce",
                "epoch_s": 1.0,
                "probation_credit": probation_credit,
            },
            churn={
                "schedule": [
                    {"t_s": 20.0, "node": 4, "action": "leave"},
                    {"t_s": 24.0, "node": 4, "action": "join"},
                ]
            },
            faults={
                "schedule": [
                    {"t_s": 7.0, "kind": "node-crash", "node": 5, "down_ms": 500}
                ],
                "recovery_deadline_s": 15.0,
                "retry": {"backoff_factor": 2.0, "jitter": 0.1, "backoff_s": 0.5},
            },
        )
        with oracle_policy("warn"):
            return spec.run()

    def test_honest_repairer_survives_with_credit(self):
        experiment = self._race(probation_credit=True)
        report = experiment.membership.report()
        # The attacker's path to eviction is unchanged...
        assert report["verdicts"]["node-3"] == "evicted"
        # ...but the honest node that crash-restarted during quarantine is
        # not evicted: its neutral (recalibrating) epochs paused the clock.
        assert report["verdicts"]["node-5"] != "evicted"
        # And it genuinely repaired: cold recalibration re-anchored its
        # clock to the authority within a few milliseconds.
        assert abs(experiment.drift(5).final_drift_ns()) < 5 * MILLISECOND

    def test_wall_clock_eviction_is_the_regression(self):
        experiment = self._race(probation_credit=False)
        report = experiment.membership.report()
        # Without credit the deadline expires mid-repair — the false
        # eviction this satellite exists to prevent.
        assert report["verdicts"]["node-5"] == "evicted"


class TestFalsePositives:
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_fault_free_runs_flip_no_verdicts(self, seed):
        with plane_policy(membership="observe"):
            experiment = scenario_spec("fig2-fault-free-triad-like", seed).build()
            experiment.run(12 * SECOND)
        report = experiment.membership.report()
        assert report["events"] == []
        assert all(
            verdict == MembershipVerdict.ACTIVE.value
            for verdict in report["verdicts"].values()
        )
