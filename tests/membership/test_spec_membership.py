"""Spec-level membership/churn blocks and their plane in the fleet ``spec`` task."""

import json
from pathlib import Path

import pytest

from repro.core.cluster import ClusterConfig, TriadCluster
from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.fleet.tasks import RunTask, execute_task
from repro.oracle import Violation
from repro.oracle.policy import oracle_policy, plane_policy, run_planes
from repro.sim import Simulator

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "specs"


def _spec_dict(**overrides):
    base = {
        "name": "membership-unit",
        "seed": 6,
        "duration_s": 5.0,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "membership": {"mode": "observe", "epoch_s": 1.0},
    }
    base.update(overrides)
    return base


class TestMembershipBlock:
    def test_valid_block_round_trips_through_json(self):
        spec = ExperimentSpec.from_dict(_spec_dict())
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="membership.mode"):
            ExperimentSpec.from_dict(_spec_dict(membership={"mode": "audit"}))

    def test_config_keys_are_validated(self):
        with pytest.raises(ConfigurationError, match="membership"):
            ExperimentSpec.from_dict(
                _spec_dict(membership={"mode": "observe", "quorum": 3})
            )

    def test_block_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="membership"):
            ExperimentSpec.from_dict(_spec_dict(membership="enforce"))

    def test_run_attaches_the_engine(self):
        spec = ExperimentSpec.from_dict(_spec_dict(duration_s=3.0))
        experiment = spec.run()
        assert experiment.membership is not None
        assert experiment.membership.mode == "observe"
        assert experiment.membership.report()["epochs_closed"] >= 2


class TestPlaneScope:
    """A ``membership`` block is an inner plane scope: its engine is built
    by the scope like any other, and its quarantines allow their downgrades
    on that cluster's oracle alone."""

    def test_block_engine_is_built_by_the_enclosing_plane_scope(self):
        spec = ExperimentSpec.from_dict(
            _spec_dict(membership={"mode": "enforce", "epoch_s": 2.0})
        )
        with plane_policy(oracle="warn") as scope:
            experiment = spec.build()
            oracles, controllers = scope.drain()
        assert experiment.membership is experiment.cluster.membership
        assert controllers == [experiment.membership]
        assert oracles == [experiment.oracle]
        assert experiment.membership.mode == "enforce"
        assert experiment.membership.config.epoch_s == 2.0

    def test_quarantine_allows_its_downgrades_on_the_oracle(self):
        raw = json.loads((EXAMPLES / "membership_propagation.json").read_text())
        bare = {key: value for key, value in raw.items() if key != "membership"}
        with oracle_policy("warn"):
            declared = ExperimentSpec.from_dict(bare).build().oracle.allowed
            experiment = ExperimentSpec.from_dict(raw).run()
        downgrades = experiment.oracle.allowed - declared
        assert {("node-3", "drift-bound"), ("node-3", "untaint-safety")} <= downgrades
        assert ("node-1", "drift-bound") not in downgrades
        assert declared <= experiment.oracle.allowed

    def test_a_downgrade_leaves_another_clusters_oracle_unexcused(self):
        def two_clusters():
            clusters = [TriadCluster(Simulator(seed=1), ClusterConfig()) for _ in range(2)]
            clusters[0].membership._quarantine("node-3", None)
            for cluster in clusters:
                cluster.oracle._record(
                    Violation(time_ns=0, node="node-3", invariant="drift-bound", detail="test")
                )
            return clusters

        run = run_planes(two_clusters, oracle="strict", membership="observe")
        quarantined, other = run.value
        assert quarantined.oracle.unexpected_violations() == []
        assert other.oracle.allowed == set()
        assert [v.key for v in other.oracle.unexpected_violations()] == [("node-3", "drift-bound")]
        assert run.failure is not None


class TestChurnBlock:
    def test_schedule_round_trips(self):
        churn = {
            "absent": [3],
            "schedule": [
                {"t_s": 1.0, "node": 3, "action": "join"},
                {"t_s": 2.0, "node": 2, "action": "leave"},
                {"t_s": 4.0, "node": 2, "action": "join"},
            ],
        }
        spec = ExperimentSpec.from_dict(_spec_dict(churn=churn))
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="churn"):
            ExperimentSpec.from_dict(_spec_dict(churn={"nodes": [1]}))

    def test_leave_of_absent_node_rejected(self):
        churn = {"absent": [3], "schedule": [{"t_s": 1.0, "node": 3, "action": "leave"}]}
        with pytest.raises(ConfigurationError, match="already absent"):
            ExperimentSpec.from_dict(_spec_dict(churn=churn))

    def test_join_of_present_node_rejected(self):
        churn = {"schedule": [{"t_s": 1.0, "node": 2, "action": "join"}]}
        with pytest.raises(ConfigurationError, match="already present"):
            ExperimentSpec.from_dict(_spec_dict(churn=churn))

    def test_everyone_absent_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            ExperimentSpec.from_dict(_spec_dict(churn={"absent": [1, 2, 3]}))

    def test_out_of_range_node_rejected(self):
        churn = {"schedule": [{"t_s": 1.0, "node": 9, "action": "leave"}]}
        with pytest.raises(ConfigurationError, match="outside cluster"):
            ExperimentSpec.from_dict(_spec_dict(churn=churn))

    def test_churn_is_reflected_in_the_report(self):
        churn = {
            "absent": [3],
            "schedule": [
                {"t_s": 1.0, "node": 3, "action": "join"},
                {"t_s": 2.0, "node": 2, "action": "leave"},
            ],
        }
        spec = ExperimentSpec.from_dict(_spec_dict(duration_s=4.0, churn=churn))
        experiment = spec.run()
        report = experiment.membership.report()
        actions = [entry["action"] for entry in report["churn"]]
        assert actions.count("join") == 1
        assert actions.count("leave") == 1
        assert report["verdicts"]["node-2"] == "absent"


class TestFleetRunner:
    def test_membership_task_reports_verdicts_and_drift(self):
        task = RunTask(
            name="membership-unit",
            kind="spec",
            payload={"spec": _spec_dict(duration_s=3.0)},
        )
        value = execute_task(task)
        assert value["spec"] == "membership-unit"
        plane = value["planes"]["membership"]
        assert set(plane["report"]["verdicts"]) == {"node-1", "node-2", "node-3"}
        assert "mode=observe" in plane["rendered"]
        for name in ("node-1", "node-2", "node-3"):
            assert name in value["rendered"]  # the drift table rides along
        # The whole result is JSON-plain for fleet caching.
        assert json.loads(json.dumps(value)) == value

    def test_no_block_means_no_membership_plane(self):
        spec = _spec_dict(duration_s=3.0)
        del spec["membership"]
        value = execute_task(RunTask(name="plain", kind="spec", payload={"spec": spec}))
        assert value["planes"] == {}
        # ...unless the plane policy asks for one.
        task = RunTask(
            name="plain", kind="spec", payload={"spec": spec},
            overrides={"membership": "observe"},
        )
        assert execute_task(task)["planes"]["membership"]["report"]["mode"] == "observe"
