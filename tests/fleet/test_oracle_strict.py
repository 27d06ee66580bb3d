"""Oracle integration with the fleet: violations cross worker boundaries.

The oracle mode rides in ``task.overrides["oracle"]`` (part of the task
content, so it pickles into workers and keys the result cache). These
tests pin the contract end to end:

* warn mode attaches violation records to the task's result value and
  :class:`TaskResult`;
* strict mode fails the task — and therefore the batch — when a
  violation falls outside the oracle's allowance, without burning retries
  (oracle violations are deterministic re-runs);
* a sweep point's allowance comes from its attacker, never its task name;
* the behaviour is identical in-process (``jobs=1``) and across worker
  processes (``jobs=2``), which exercises
  :class:`~repro.errors.OracleViolationError` pickling.
"""

import pytest

from repro.attacks.delay import CalibrationDelayAttacker
from repro.errors import OracleViolationError
from repro.fleet import FleetPool, FleetTelemetry, RunTask
from repro.fleet.tasks import execute_task
from repro.sim.units import MILLISECOND, SECOND


def attack_point_task(name, oracle_mode, delay_ns=50 * MILLISECOND):
    """A sweep point running the F- attack — guaranteed violations, all
    allowed by its attacker whatever the task's name."""
    return RunTask(
        kind="sweep-point",
        name=name,
        seed=400,
        duration_ns=90 * SECOND,
        payload={
            "sweep": "attack-delay",
            "kwargs": {
                "mode": "F_MINUS",
                "delay_ns": delay_ns,
                "seed": 400,
                "settle_ns": 30 * SECOND,
                "measure_ns": 60 * SECOND,
            },
        },
        overrides={"oracle": oracle_mode},
    )


def strip_allowance(monkeypatch, delay_ns=None):
    """Make the attacker of one delay (default: every one) declare nothing,
    so its violations become unexpected. Forked workers inherit the patch."""
    declare = CalibrationDelayAttacker.expected_violations

    def stripped(self, contained=False):
        if delay_ns is None or self.added_delay_ns == delay_ns:
            return set()
        return declare(self, contained)

    monkeypatch.setattr(CalibrationDelayAttacker, "expected_violations", stripped)


class TestExecuteTask:
    def test_warn_mode_attaches_violations_to_value(self):
        value = execute_task(attack_point_task("unregistered-name", "warn"))
        assert value["violations"], "the F- attack must violate invariants"
        invariants = {v["invariant"] for v in value["violations"]}
        assert "drift-bound" in invariants

    def test_strict_mode_raises_on_unexpected(self, monkeypatch):
        strip_allowance(monkeypatch)
        with pytest.raises(OracleViolationError) as excinfo:
            execute_task(attack_point_task("attack-delay/F_MINUS/50ms", "strict"))
        assert "unexpected" in str(excinfo.value)
        assert excinfo.value.violations  # records travel with the error

    def test_strict_mode_passes_when_expected(self):
        task = attack_point_task("attack-delay/F_MINUS/50ms", "strict")
        value = execute_task(task)
        assert value["violations"]  # observed, but allowed

    def test_strict_mode_passes_whatever_the_task_name(self):
        value = execute_task(attack_point_task("unregistered-name", "strict"))
        assert value["violations"]  # the attacker allowed them, not the name

    def test_off_mode_adds_nothing(self):
        task = attack_point_task("unregistered-name", "off")
        assert "violations" not in execute_task(task)

    def test_error_pickles_with_violations(self):
        import pickle

        error = OracleViolationError("boom", violations=[{"invariant": "drift-bound"}])
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom"
        assert clone.violations == [{"invariant": "drift-bound"}]


class TestPoolStrict:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_violation_fails_the_batch_without_retry(self, jobs, monkeypatch):
        strip_allowance(monkeypatch, delay_ns=100 * MILLISECOND)
        tasks = [
            attack_point_task("attack-delay/F_MINUS/50ms", "strict"),  # allowed: ok
            attack_point_task(  # allowance stripped: fails
                "attack-delay/F_MINUS/100ms", "strict", delay_ns=100 * MILLISECOND
            ),
        ]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=jobs, retries=2).run(tasks, telemetry=telemetry)

        assert results[0].ok
        assert results[0].violations  # surfaced on the TaskResult
        assert not results[1].ok
        assert "OracleViolationError" in results[1].error
        assert results[1].attempts == 1, "deterministic failures must not retry"
        assert results[1].violations
        assert telemetry.retries == 0
        assert not all(result.ok for result in results)  # batch-level failure

    def test_warn_mode_keeps_batch_green_but_counts(self):
        tasks = [attack_point_task("rogue-point", "warn")]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=1).run(tasks, telemetry=telemetry)
        assert results[0].ok
        assert results[0].violations
        assert telemetry.violations == len(results[0].violations)
        assert "oracle violation" in telemetry.render_summary()

    def test_violations_survive_the_result_cache(self, tmp_path):
        from repro.fleet import ResultCache

        cache = ResultCache(tmp_path)
        task = attack_point_task("attack-delay/F_MINUS/50ms", "warn")
        pool = FleetPool(jobs=1)
        first = pool.run([task], cache=cache)[0]
        second = pool.run([task], cache=cache)[0]
        assert second.from_cache
        assert second.violations == first.violations
