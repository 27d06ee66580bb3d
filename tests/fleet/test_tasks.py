"""Tests for RunTask serialization, hashing, and the runner registry."""

import pytest

import repro
from repro.errors import FleetError
from repro.fleet.tasks import (
    RunTask,
    execute_task,
    register_runner,
    result_sim_ns,
    runner_for,
)


@register_runner("tasks-test-echo")
def _echo(task):
    return {"echo": task.payload.get("value"), "sim_ns": task.payload.get("sim_ns", 0)}


class TestRunTask:
    def test_roundtrip_through_dict(self):
        task = RunTask(
            kind="sweep-point",
            name="attack-delay/10ms",
            seed=400,
            duration_ns=90_000_000_000,
            payload={"sweep": "attack-delay", "kwargs": {"delay_ns": 10_000_000}},
        )
        assert RunTask.from_dict(task.to_dict()) == task

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FleetError, match="unknown RunTask keys"):
            RunTask.from_dict({"kind": "spec", "name": "x", "bogus": 1})

    def test_hash_is_stable_and_content_addressed(self):
        a = RunTask(kind="spec", name="x", seed=1, payload={"p": [1, 2]})
        b = RunTask(kind="spec", name="x", seed=1, payload={"p": [1, 2]})
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    def test_hash_changes_with_seed_and_payload(self):
        base = RunTask(kind="spec", name="x", seed=1, payload={"p": 1})
        assert base.content_hash() != RunTask(kind="spec", name="x", seed=2, payload={"p": 1}).content_hash()
        assert base.content_hash() != RunTask(kind="spec", name="x", seed=1, payload={"p": 2}).content_hash()

    def test_hash_salted_with_code_version(self, monkeypatch):
        task = RunTask(kind="spec", name="x")
        before = task.content_hash()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert task.content_hash() != before


class TestRegistry:
    def test_execute_dispatches_by_kind(self):
        task = RunTask(kind="tasks-test-echo", name="e", payload={"value": 7, "sim_ns": 5})
        value = execute_task(task)
        assert value == {"echo": 7, "sim_ns": 5}
        assert result_sim_ns(value) == 5

    def test_unknown_kind_raises(self):
        with pytest.raises(FleetError, match="no runner registered"):
            runner_for("not-a-kind")

    def test_builtin_kinds_registered(self):
        from repro.fleet.tasks import _RUNNERS

        builtin = {k for k, fn in _RUNNERS.items() if fn.__module__ == "repro.fleet.tasks"}
        assert builtin == {"sweep-point", "spec", "hunt-genome", "experiment"}
        for kind in builtin:
            assert callable(runner_for(kind))

    def test_result_sim_ns_tolerates_non_dicts(self):
        assert result_sim_ns("text") == 0
        assert result_sim_ns({"sim_ns": "nope"}) == 0


class TestBuiltinRunners:
    def test_sweep_point_runner_rejects_unknown_sweep(self):
        task = RunTask(kind="sweep-point", name="x", payload={"sweep": "bogus"})
        with pytest.raises(FleetError, match="unknown sweep"):
            execute_task(task)

    def test_experiment_runner_rejects_unknown_experiment(self):
        task = RunTask(kind="experiment", name="x", payload={"experiment": "fig99"})
        with pytest.raises(FleetError, match="unknown experiment"):
            execute_task(task)

    def test_spec_runner_produces_rendered_table(self):
        task = RunTask(
            kind="spec",
            name="s",
            payload={
                "spec": {
                    "name": "fleet-spec-test",
                    "seed": 7,
                    "duration_s": 10,
                    "nodes": 1,
                    "machine_wide_mean_s": None,
                }
            },
        )
        value = execute_task(task)
        assert value["spec"] == "fleet-spec-test"
        assert "node-1" in value["rendered"]
        assert value["sim_ns"] == 10_000_000_000
