"""Tests for the canonical scenarios (wiring correctness; short runs only)."""

import pytest

from repro.attacks.delay import AttackMode
from repro.errors import ConfigurationError
from repro.experiments import scenarios
from repro.experiments.spec import ExperimentSpec
from repro.hardened.node import HardenedTriadNode
from repro.oracle.policy import oracle_policy
from repro.sim import units


def _spec(environments, **overrides):
    return ExperimentSpec.from_dict(
        {"name": "wiring", "seed": 1, "environments": environments, **overrides}
    )


class TestBuildExperiment:
    def test_environments_must_cover_all_nodes(self):
        # Unlisted nodes default to low-AEX; a node outside the cluster is an error.
        with pytest.raises(ConfigurationError, match="unknown node 4"):
            _spec({"1": "triad-like", "4": "triad-like"})

    def test_triad_like_nodes_get_sources(self):
        experiment = _spec({"1": "triad-like", "2": "low-aex", "3": "low-aex"}).build()
        machine = experiment.cluster.machine
        assert set(machine.aex_sources) == {experiment.cluster.monitoring_cores[0]}
        assert machine.machine_wide_interrupts is not None

    def test_machine_wide_can_be_disabled(self):
        experiment = _spec({}, machine_wide_mean_s=None).build()
        assert experiment.cluster.machine.machine_wide_interrupts is None


def _wiring(experiment):
    """What a scenario entry wires: the facts the round trip must keep."""
    cluster = experiment.cluster
    return {
        "name": experiment.name,
        "node_class": {type(node) for node in cluster.nodes},
        "aex_cores": set(cluster.machine.aex_sources),
        "attackers": [
            (type(a).__name__, getattr(a, "victim_host", None), getattr(a, "mode", None))
            for a in experiment.attackers
        ],
        "allowed": experiment.oracle.allowed,
    }


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenario_entries_round_trip_through_json(name):
    spec = scenarios.scenario_spec(name)
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    with oracle_policy("warn"):
        assert _wiring(again.build()) == _wiring(spec.build())


class TestAttackScenarios:
    def test_fplus_attacker_attached_to_node3(self):
        experiment = scenarios.scenario_spec("fig4-fplus-low-aex", 2).build()
        assert len(experiment.attackers) == 1
        attacker = experiment.attackers[0]
        assert attacker.mode is AttackMode.F_PLUS
        assert attacker.victim_host == "node-3"

    def test_fminus_honest_sources_paused_until_switch(self):
        experiment = scenarios.fminus_propagation(seed=2, switch_at_ns=3 * units.SECOND)
        cores = experiment.cluster.monitoring_cores
        machine = experiment.cluster.machine
        assert not machine.aex_sources[cores[0]].enabled
        assert not machine.aex_sources[cores[1]].enabled
        assert machine.aex_sources[cores[2]].enabled
        experiment.run(5 * units.SECOND)
        assert machine.aex_sources[cores[0]].enabled
        assert machine.aex_sources[cores[1]].enabled

    def test_hardened_scenario_uses_hardened_nodes(self):
        experiment = scenarios.hardened_fminus_propagation(seed=2)
        assert all(isinstance(node, HardenedTriadNode) for node in experiment.cluster.nodes)


class TestExperimentRunner:
    def test_run_and_accessors(self):
        experiment = scenarios.scenario_spec("fig2-fault-free-triad-like", 3).build()
        experiment.run(20 * units.SECOND)
        assert experiment.duration_ns == 20 * units.SECOND
        assert experiment.frequency_mhz(1) == pytest.approx(2900, rel=0.01)
        assert 0 < experiment.availability(1) <= 1
        assert experiment.drift(1).samples

    def test_accessors_before_run_fail(self):
        experiment = scenarios.scenario_spec("fig2-fault-free-triad-like", 4).build()
        with pytest.raises(ConfigurationError):
            experiment.availability(1)

    def test_zero_duration_rejected(self):
        experiment = scenarios.scenario_spec("fig2-fault-free-triad-like", 5).build()
        with pytest.raises(ConfigurationError):
            experiment.run(0)
