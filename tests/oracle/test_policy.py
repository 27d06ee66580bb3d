"""Tests for the scoped plane policy, cluster auto-attach and scope ownership."""

import gc
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.oracle import (
    OracleConfig,
    current_policy,
    drain_created_oracles,
    oracle_policy,
    plane_policy,
)
from repro.sim import units

from tests.core.conftest import build_cluster


class TestPolicyLifecycle:
    def test_default_is_off(self):
        policy = current_policy()
        assert policy.oracle == "off"
        assert policy.membership == "off"
        assert not policy.strict

    def test_scope_enter_and_exit(self):
        with oracle_policy("strict") as scope:
            assert current_policy() is scope
            assert current_policy().strict
        assert current_policy().oracle == "off"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            with oracle_policy("paranoid"):
                pass
        with pytest.raises(ConfigurationError):
            with plane_policy(membership="audit"):
                pass
        assert current_policy().oracle == "off"

    def test_context_manager_restores_previous(self):
        with oracle_policy("warn"):
            with oracle_policy("strict"):
                assert current_policy().strict
                with oracle_policy("off"):
                    assert current_policy().oracle == "off"
                assert current_policy().strict
            assert current_policy().oracle == "warn"

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with oracle_policy("strict"):
                raise RuntimeError("boom")
        assert current_policy().oracle == "off"

    def test_custom_config_carried(self):
        config = OracleConfig(drift_bound_ns=units.SECOND)
        with oracle_policy("warn", config):
            assert current_policy().oracle_config.drift_bound_ns == units.SECOND

    def test_unset_modes_inherit_the_enclosing_scope(self):
        config = OracleConfig(drift_bound_ns=units.SECOND)
        with oracle_policy("warn", config):
            with plane_policy(membership="observe") as inner:
                assert inner.oracle == "warn"
                assert inner.oracle_config is config
                assert inner.membership == "observe"


class TestClusterAutoAttach:
    def test_off_policy_attaches_nothing(self):
        _sim, cluster = build_cluster(seed=40)
        assert cluster.oracle is None
        assert cluster.membership is None
        assert drain_created_oracles() == []

    def test_enabled_policy_attaches_and_registers(self):
        with oracle_policy("warn"):
            sim, cluster = build_cluster(seed=41)
            assert cluster.oracle is not None
            assert cluster.oracle.node_names == [node.name for node in cluster.nodes]
            assert drain_created_oracles() == [cluster.oracle]
            assert drain_created_oracles() == []  # drain clears

    def test_policy_config_reaches_the_oracle(self):
        config = OracleConfig(freshness_deadline_ns=30 * units.SECOND)
        with oracle_policy("warn", config):
            _sim, cluster = build_cluster(seed=42)
        assert cluster.oracle.config.freshness_deadline_ns == 30 * units.SECOND

    def test_attach_from_policy_direct(self):
        sim, cluster = build_cluster(seed=43)
        assert current_policy().attach(cluster) == (None, None)  # off
        with plane_policy("warn", "observe") as scope:
            oracle, controller = scope.attach(cluster)
            assert oracle is not None and controller.mode == "observe"
            assert scope.drain() == ([oracle], [controller])

    def test_watched_cluster_run_stays_clean(self):
        with oracle_policy("warn"):
            sim, cluster = build_cluster(seed=44)
        sim.run(until=10 * units.SECOND)
        cluster.oracle.finalize()
        assert cluster.oracle.violations == []


class TestScopeOwnership:
    def test_scope_exit_releases_created_oracles(self):
        """Regression: a finished scope must not keep its oracles alive."""
        with oracle_policy("warn"):
            sim, cluster = build_cluster(seed=45)
            ref = weakref.ref(cluster.oracle)
        del sim, cluster
        gc.collect()
        assert ref() is None

    def test_nested_scope_hands_undrained_planes_to_its_parent(self):
        with oracle_policy("warn") as outer:
            with plane_policy(membership="observe"):
                _sim, cluster = build_cluster(seed=46)
            assert outer.drain() == ([cluster.oracle], [cluster.membership])

    def test_drain_created_oracles_leaves_controllers_held(self):
        with plane_policy("warn", "observe") as scope:
            _sim, cluster = build_cluster(seed=48)
            assert drain_created_oracles() == [cluster.oracle]
            assert scope.drain() == ([], [cluster.membership])

    def test_drain_outside_any_scope_is_harmless(self):
        with oracle_policy("warn"):
            build_cluster(seed=47)
        assert drain_created_oracles() == []
