"""Churn + enforcement must be deterministic across worker counts.

Epoch closes, verdict transitions, key rotations, and join/leave events
all ride on the simulation kernel's event order, so a membership run's
report is a pure function of its spec. Running the same specs serially
and across two worker processes must produce byte-identical reports —
the property the fleet's result cache and the oracle both rely on.
"""

import json

from repro.fleet.pool import FleetPool
from repro.fleet.tasks import RunTask


def _tasks():
    churn_spec = {
        "name": "determinism-churn",
        "seed": 11,
        "duration_s": 12.0,
        "nodes": 4,
        "environments": {str(i): "triad-like" for i in range(1, 5)},
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "churn": {
            "absent": [4],
            "schedule": [
                {"t_s": 2.0, "node": 4, "action": "join"},
                {"t_s": 5.0, "node": 2, "action": "leave"},
                {"t_s": 8.0, "node": 2, "action": "join"},
            ],
        },
    }
    attack_spec = {
        "name": "determinism-fminus",
        "seed": 6,
        "duration_s": 12.0,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "attacks": [{"type": "fminus", "victim": 3, "delay_ms": 100}],
    }
    return [
        RunTask(name=spec["name"], kind="spec", payload={"spec": spec})
        for spec in (churn_spec, attack_spec)
    ]


def _canonical(results):
    return [json.dumps(result.value, sort_keys=True) for result in results]


def test_serial_and_two_workers_are_byte_identical():
    serial = FleetPool(jobs=1).run(_tasks(), cache=None)
    parallel = FleetPool(jobs=2).run(_tasks(), cache=None)
    assert all(result.ok for result in serial + parallel)
    assert _canonical(serial) == _canonical(parallel)


def test_repeated_serial_runs_are_byte_identical():
    first = _canonical(FleetPool(jobs=1).run(_tasks(), cache=None))
    second = _canonical(FleetPool(jobs=1).run(_tasks(), cache=None))
    assert first == second
    # The reports actually carry content (verdicts + churn), so the
    # equality above is not vacuous.
    report = json.loads(first[0])["planes"]["membership"]["report"]
    assert report["churn"]
    assert report["verdicts"]
