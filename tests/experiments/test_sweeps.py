"""Tests for parameter-sweep utilities (small, fast configurations)."""

import pytest

from repro.attacks.delay import AttackMode
from repro.experiments.sweeps import (
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
