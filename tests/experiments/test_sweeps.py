"""Tests for parameter-sweep utilities (small, fast configurations)."""

import dataclasses

import pytest

from repro.attacks.delay import AttackMode
from repro.errors import ConfigurationError
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.sweeps import (
    SWEEPS,
    SweepPoint,
    aex_rate_tasks,
    attack_delay_tasks,
    cluster_size_tasks,
    jitter_tasks,
    run_point_tasks,
)
from repro.sim.units import MILLISECOND, MINUTE, SECOND


class TestSweepPoint:
    def test_row_extraction(self):
        point = SweepPoint(parameter="x", value=2.0, metrics={"a": 1.0, "b": 2.0})
        assert point.row(["b", "a"]) == [2.0, 2.0, 1.0]

    def test_missing_metric_is_nan(self):
        import math

        point = SweepPoint(parameter="x", value=1.0)
        assert math.isnan(point.row(["missing"])[1])


class TestAttackDelaySweep:
    def test_fplus_skews_match_prediction(self):
        points = run_point_tasks(
            attack_delay_tasks(
                AttackMode.F_PLUS,
                delays_ns=(50 * MILLISECOND,),
                settle_ns=20 * SECOND,
                measure_ns=20 * SECOND,
            )
        )
        assert len(points) == 1
        point = points[0]
        assert point.metrics["skew_measured"] == pytest.approx(
            point.metrics["skew_predicted"], rel=5e-3
        )
        assert point.metrics["drift_ms_per_s"] < 0


class TestJitterSweep:
    def test_error_grows_with_jitter(self):
        points = run_point_tasks(jitter_tasks(sigmas=(0.05, 0.7), seeds=(500, 501, 502)))
        assert points[0].metrics["mean_abs_error_ppm"] < points[1].metrics[
            "mean_abs_error_ppm"
        ]


class TestClusterSizeSweep:
    def test_three_node_point_fully_infected(self):
        points = run_point_tasks(cluster_size_tasks(sizes=(3,), duration_ns=2 * MINUTE))
        assert points[0].metrics["infected_fraction"] == 1.0


class TestAexRateSweep:
    def test_availability_ordering(self):
        points = run_point_tasks(
            aex_rate_tasks(mean_delays_ns=(SECOND, 30 * SECOND), duration_ns=MINUTE)
        )
        assert points[0].metrics["availability"] <= points[1].metrics["availability"]
        assert points[0].metrics["aex_count"] > points[1].metrics["aex_count"]


def _specs(task):
    """The specs a ``sweep-point`` task runs."""
    return SWEEPS[task.payload["sweep"]].specs(task.payload["kwargs"], task.name)


class TestPointSpecs:
    """A point is its sweep's base spec with the swept keys replaced."""

    def test_jitter_point_is_one_spec_over_its_eight_seeds(self):
        (task,) = jitter_tasks(sigmas=(0.1,))
        specs = _specs(task)
        assert [spec.seed for spec in specs] == list(range(420, 428))
        unseeded = dataclasses.replace(specs[0], seed=0)
        assert all(dataclasses.replace(spec, seed=0) == unseeded for spec in specs)

    def test_cluster_size_point_replaces_the_swept_keys(self):
        (task,) = cluster_size_tasks(sizes=(5,))
        (spec,) = _specs(task)
        assert (spec.name, spec.seed, spec.nodes) == ("cluster-size/5", 440, 5)
        assert spec.attacks == [{"type": "fminus", "victim": 5}]
        assert spec.node_config == SCENARIOS["sweep-cluster-size"]["node_config"]


class TestExactValues:
    """Specs write ns kwargs in ms, µs or s and truncate them back, so a
    naive conversion turns 2_013_632 ns into 2_013_631 ns."""

    def test_an_arbitrary_attack_delay_reaches_the_attacker(self):
        (task,) = attack_delay_tasks(delays_ns=(2_013_632,))
        (spec,) = _specs(task)
        assert spec.build().attackers[0].added_delay_ns == 2_013_632

    def test_an_arbitrary_jitter_median_reaches_the_delay_model(self):
        (task,) = jitter_tasks(sigmas=(0.1,), median_ns=128_003, seeds=(1,))
        (spec,) = _specs(task)
        assert spec.build().cluster.config.delay_model.median_ns == 128_003

    def test_a_delay_without_an_exact_value_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no exact value"):
            attack_delay_tasks(delays_ns=(2**60 + 1,))
