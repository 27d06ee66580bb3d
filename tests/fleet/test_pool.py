"""Tests for the fleet worker pool: serial path, parallelism, crash
recovery and timeouts (the only failures that are retried).

The test-only task kinds below are registered at module import time, so
``fork``-started workers inherit them; the parallel tests are skipped on
platforms without ``fork`` (the kinds would not exist in spawned
children).
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.errors import FleetError
from repro.fleet.cache import ResultCache
from repro.fleet.pool import FleetPool
from repro.fleet.tasks import RunTask, register_runner
from repro.fleet.telemetry import FleetTelemetry

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


@register_runner("pool-test-echo")
def _echo(task):
    return {"echo": task.payload["value"], "sim_ns": task.payload.get("sim_ns", 0)}


@register_runner("pool-test-fail-times")
def _fail_times(task):
    """Raise until the marker file records enough prior failures."""
    marker = Path(task.payload["marker"])
    count = int(marker.read_text()) if marker.exists() else 0
    if count < task.payload["failures"]:
        marker.write_text(str(count + 1))
        raise RuntimeError(f"transient failure #{count + 1}")
    return {"recovered": True}


@register_runner("pool-test-crash")
def _crash(task):
    """Kill the worker outright; succeed on retry if 'once' is set."""
    marker = Path(task.payload["marker"])
    if task.payload.get("once") and marker.exists():
        return {"survived": True}
    marker.write_text("crashed")
    os._exit(3)


@register_runner("pool-test-sleep")
def _sleep(task):
    time.sleep(task.payload["seconds"])
    return {"slept": task.payload["seconds"]}


def _echo_tasks(n, sim_ns=0):
    return [
        RunTask(kind="pool-test-echo", name=f"echo-{i}", payload={"value": i, "sim_ns": sim_ns})
        for i in range(n)
    ]


class TestValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(FleetError):
            FleetPool(jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(FleetError):
            FleetPool(retries=-1)


class TestSerial:
    def test_results_in_task_order(self):
        results = FleetPool(jobs=1).run(_echo_tasks(5))
        assert [r.value["echo"] for r in results] == [0, 1, 2, 3, 4]
        assert all(r.ok and not r.from_cache and r.attempts == 1 for r in results)

    def test_failure_becomes_result_not_exception(self, tmp_path):
        marker = tmp_path / "m"
        task = RunTask(
            kind="pool-test-fail-times",
            name="always-fails",
            payload={"marker": str(marker), "failures": 99},
        )
        [result] = FleetPool(jobs=1, retries=1).run([task])
        assert not result.ok
        assert "transient failure" in result.error
        assert result.attempts == 1
        assert marker.read_text() == "1"

    def test_raising_task_is_not_retried(self, tmp_path):
        """A task is a pure function of its content: one that raised would
        raise again, so retry budget is spent only on dead workers."""
        marker = tmp_path / "m"
        task = RunTask(
            kind="pool-test-fail-times",
            name="flaky",
            payload={"marker": str(marker), "failures": 1},
        )
        telemetry = FleetTelemetry()
        [result] = FleetPool(jobs=1, retries=2).run([task], telemetry=telemetry)
        assert not result.ok
        assert "transient failure #1" in result.error
        assert result.attempts == 1
        assert telemetry.retries == 0
        assert marker.read_text() == "1"

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _echo_tasks(3, sim_ns=10)
        pool = FleetPool(jobs=1)
        cold = pool.run(tasks, cache=cache)
        telemetry = FleetTelemetry()
        warm = pool.run(tasks, cache=cache, telemetry=telemetry)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert all(r.from_cache for r in warm)
        assert telemetry.cache_hits == 3


@needs_fork
class TestParallel:
    def test_results_in_task_order(self):
        results = FleetPool(jobs=3).run(_echo_tasks(7))
        assert [r.value["echo"] for r in results] == list(range(7))

    def test_task_exception_reported_without_retry(self, tmp_path):
        marker = tmp_path / "m"
        tasks = _echo_tasks(2) + [
            RunTask(
                kind="pool-test-fail-times",
                name="always-fails",
                payload={"marker": str(marker), "failures": 99},
            )
        ]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=2, retries=1).run(tasks, telemetry=telemetry)
        assert [r.ok for r in results] == [True, True, False]
        assert results[2].attempts == 1
        assert "transient failure" in results[2].error
        assert telemetry.retries == 0
        assert marker.read_text() == "1"

    def test_worker_crash_is_retried_on_fresh_pool(self, tmp_path):
        tasks = _echo_tasks(2) + [
            RunTask(
                kind="pool-test-crash",
                name="crash-once",
                payload={"marker": str(tmp_path / "crash"), "once": True},
            )
        ]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=2, retries=1).run(tasks, telemetry=telemetry)
        assert all(r.ok for r in results)
        assert results[2].value == {"survived": True}
        assert telemetry.worker_crashes >= 1

    def test_persistent_crash_exhausts_retries(self, tmp_path):
        task = RunTask(
            kind="pool-test-crash",
            name="crash-always",
            payload={"marker": str(tmp_path / "crash")},
        )
        telemetry = FleetTelemetry()
        [result] = FleetPool(jobs=2, retries=1).run([task], telemetry=telemetry)
        assert not result.ok
        assert "crashed" in result.error
        assert result.attempts == 2
        assert telemetry.worker_crashes >= 2

    def test_timeout_fails_the_slow_task_only(self, tmp_path):
        tasks = [
            RunTask(kind="pool-test-sleep", name="slow", payload={"seconds": 5.0}),
            RunTask(kind="pool-test-echo", name="fast", payload={"value": 1}),
        ]
        started = time.perf_counter()
        results = FleetPool(jobs=2, timeout_s=0.5, retries=0).run(tasks)
        assert time.perf_counter() - started < 4.0
        assert not results[0].ok
        assert "timed out" in results[0].error
        assert results[1].ok and results[1].value["echo"] == 1


class TestPeakRss:
    def test_executed_results_report_peak_rss(self, tmp_path):
        [result] = FleetPool(jobs=1).run(_echo_tasks(1))
        assert result.ok
        assert result.peak_rss_kb > 0

    def test_cache_hits_do_not_fake_a_measurement(self, tmp_path):
        cache = ResultCache(tmp_path)
        pool = FleetPool(jobs=1)
        pool.run(_echo_tasks(1), cache=cache)
        [warm] = pool.run(_echo_tasks(1), cache=cache)
        assert warm.from_cache
        assert warm.peak_rss_kb == 0

    @needs_fork
    def test_parallel_workers_report_peak_rss(self):
        results = FleetPool(jobs=2).run(_echo_tasks(4))
        assert all(r.peak_rss_kb > 0 for r in results)
