"""Tests for the timed-action table's scheduling kinds: `at`, suppression,
and the environment switch (an ``aex-flood`` window)."""

from types import SimpleNamespace

import pytest

from repro.attacks.scheduler import Shape, TimedAction, apply_action, at, validate
from repro.errors import ConfigurationError
from repro.hardware.aex import FixedAexDelays
from repro.hardware.machine import Machine
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=60)


@pytest.fixture
def machine(sim):
    return Machine(sim, "host", core_count=1)


@pytest.fixture
def source(machine):
    return machine.add_aex_source(0, FixedAexDelays(units.SECOND))


@pytest.fixture
def experiment(sim, machine):
    """The slice of an experiment the AEX kinds touch: node 1 on core 0."""
    cluster = SimpleNamespace(node_machines=[machine], monitoring_cores=[0])
    return SimpleNamespace(sim=sim, cluster=cluster)


def _apply(experiment, t_ns, kind, params, heal_ns=None):
    action = validate("test", t_ns, kind, params, Shape(nodes=1), heal_ns)
    return apply_action(experiment, action, f"test/{kind}")


class TestAt:
    def test_runs_action_at_absolute_time(self, sim):
        log = []
        at(sim, 5 * units.SECOND, lambda: log.append(sim.now))
        sim.run()
        assert log == [5 * units.SECOND]

    def test_past_time_rejected(self, sim):
        sim.timeout(units.SECOND)
        sim.run()
        with pytest.raises(ConfigurationError):
            at(sim, 0, lambda: None)


class TestSuppression:
    def test_immediate_suppression_stops_aexs(self, sim, source, experiment):
        _apply(experiment, 0, "aex-suppress", {"node": 1})
        assert source.enabled is False  # the apply rule: t=0 acts at once
        sim.run(until=10 * units.SECOND)
        assert source.port.count == 0

    def test_delayed_suppression(self, sim, source, experiment):
        _apply(experiment, 3 * units.SECOND + 1, "aex-suppress", {"node": 1})
        sim.run(until=10 * units.SECOND)
        assert source.port.count == 3  # AEXs at 1, 2, 3 s only

    def test_suppression_window_with_resume(self, sim, source, experiment):
        _apply(experiment, 0, "aex-suppress", {"node": 1}, heal_ns=5 * units.SECOND)
        sim.run(until=10 * units.SECOND)
        # Source resumes at ~5s (poll granularity), fires roughly 4-5 times.
        assert 3 <= source.port.count <= 5

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError, match="must end after it starts"):
            validate("test", 5, "aex-suppress", {"node": 1}, Shape(nodes=1), heal_ns=5)


class TestEnvironmentSwitch:
    """Fig. 6's environment switch is an ``aex-flood`` window."""

    def test_distribution_switched_at_time(self, sim, source, experiment):
        _apply(experiment, 5 * units.SECOND, "aex-flood", {"node": 1, "mean_us": 100_000})
        sim.run(until=10 * units.SECOND)
        delays = source.port.inter_aex_delays_ns()
        assert units.SECOND in delays
        # Cadence increased: far more than the 10 AEXs of the 1 s stream.
        assert source.port.count > 30
        assert all(
            event.time_ns > 5 * units.SECOND for event in source.port.history[5:]
        )

    def test_switch_can_resume_paused_source(self, sim, source, experiment):
        source.pause()
        _apply(
            experiment,
            5 * units.SECOND,
            "aex-flood",
            {"node": 1, "mean_us": 1_000_000, "duration_ms": 3_000},
        )
        sim.run(until=12 * units.SECOND)
        assert source.port.count > 0
        assert all(
            5 * units.SECOND < event.time_ns <= 8 * units.SECOND + 100 * units.MILLISECOND
            for event in source.port.history
        )
        # The heal restores what compile time saw: paused, 1 s stream.
        assert source.enabled is False
        assert isinstance(source.distribution, FixedAexDelays)
