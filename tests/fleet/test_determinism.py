"""The fleet's hard requirement: parallel == serial, cached == cold.

For fixed seeds, running a sweep serially, with 2 workers, or with 4
workers must produce identical ``SweepPoint.metrics`` — every point
builds its own ``Simulator`` from its own seed, so process boundaries
cannot perturb the draws. Likewise a cache hit must reproduce the cold
run's values exactly (floats round-trip shortest-repr through JSON).
"""

import multiprocessing

import pytest

from repro.experiments.sweeps import attack_delay_tasks, cluster_size_tasks, run_point_tasks
from repro.fleet.cache import ResultCache
from repro.fleet.telemetry import FleetTelemetry
from repro.sim.units import MILLISECOND, MINUTE, SECOND

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

ATTACK_KWARGS = dict(
    delays_ns=(10 * MILLISECOND, 100 * MILLISECOND),
    settle_ns=10 * SECOND,
    measure_ns=10 * SECOND,
)
CLUSTER_KWARGS = dict(sizes=(3,), duration_ns=MINUTE)


def _metrics(points):
    return [(p.parameter, p.value, p.metrics) for p in points]


@needs_fork
class TestParallelEqualsSerial:
    def test_attack_delay_sweep_identical_across_jobs(self):
        serial = run_point_tasks(attack_delay_tasks(**ATTACK_KWARGS), jobs=1)
        two = run_point_tasks(attack_delay_tasks(**ATTACK_KWARGS), jobs=2)
        four = run_point_tasks(attack_delay_tasks(**ATTACK_KWARGS), jobs=4)
        assert _metrics(serial) == _metrics(two) == _metrics(four)

    def test_cluster_size_sweep_identical_across_jobs(self):
        serial = run_point_tasks(cluster_size_tasks(**CLUSTER_KWARGS), jobs=1)
        two = run_point_tasks(cluster_size_tasks(**CLUSTER_KWARGS), jobs=2)
        four = run_point_tasks(cluster_size_tasks(**CLUSTER_KWARGS), jobs=4)
        assert _metrics(serial) == _metrics(two) == _metrics(four)


class TestCacheDeterminism:
    def test_cache_hit_reproduces_cold_run_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_telemetry = FleetTelemetry()
        cold = run_point_tasks(
            attack_delay_tasks(**ATTACK_KWARGS), cache=cache, telemetry=cold_telemetry
        )
        warm_telemetry = FleetTelemetry()
        warm = run_point_tasks(
            attack_delay_tasks(**ATTACK_KWARGS), cache=cache, telemetry=warm_telemetry
        )
        assert _metrics(warm) == _metrics(cold)
        assert cold_telemetry.cache_hits == 0
        assert warm_telemetry.cache_hits == warm_telemetry.total == len(warm)

    def test_different_seed_misses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_point_tasks(attack_delay_tasks(**ATTACK_KWARGS), cache=cache)
        telemetry = FleetTelemetry()
        run_point_tasks(
            attack_delay_tasks(seed=999, **ATTACK_KWARGS), cache=cache, telemetry=telemetry
        )
        assert telemetry.cache_hits == 0
