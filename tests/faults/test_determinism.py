"""Fault runs must be byte-identical across fleet worker counts.

Crash/restart events, TA outage windows, partitions, retry backoff
(jitter included — it draws from the node's seeded stream), and the
recovery report are all pure functions of the spec, so the same
crash+partition+outage scenario serialized from one worker and from two
must match byte for byte."""

import json
import multiprocessing

import pytest

from repro.fleet.pool import FleetPool
from repro.fleet.tasks import RunTask

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")


def _tasks():
    mixed_spec = {
        "name": "determinism-crash-outage-partition",
        "seed": 13,
        "duration_s": 40.0,
        "nodes": 3,
        "environments": {str(i): "triad-like" for i in range(1, 4)},
        "faults": {
            "schedule": [
                {"t_s": 12.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                {"t_s": 14.0, "kind": "ta-outage", "duration_ms": 3000},
                {"t_s": 20.0, "kind": "partition", "island": [3], "duration_ms": 2000},
                {
                    "t_s": 24.0,
                    "kind": "loss-burst",
                    "drop_probability": 0.2,
                    "duration_ms": 1000,
                },
            ],
            "recovery_deadline_s": 15.0,
            "retry": {
                "backoff_factor": 2.0,
                "jitter": 0.1,
                "backoff_s": 0.5,
                "max_backoff_s": 4.0,
            },
        },
    }
    flap_spec = {
        "name": "determinism-ta-flap",
        "seed": 7,
        "duration_s": 30.0,
        "nodes": 3,
        "environments": {str(i): "triad-like" for i in range(1, 4)},
        "faults": {
            "schedule": [
                {"t_s": float(t), "kind": "ta-outage", "duration_ms": 1500}
                for t in (10, 14, 18)
            ],
            "retry": {"backoff_factor": 2.0, "jitter": 0.1, "backoff_s": 0.5},
        },
    }
    return [
        RunTask(name=spec["name"], kind="spec", payload={"spec": spec})
        for spec in (mixed_spec, flap_spec)
    ]


def _canonical(results):
    return [json.dumps(result.value, sort_keys=True) for result in results]


@needs_fork
def test_serial_and_two_workers_are_byte_identical():
    serial = FleetPool(jobs=1).run(_tasks(), cache=None)
    parallel = FleetPool(jobs=2).run(_tasks(), cache=None)
    assert all(result.ok for result in serial + parallel)
    assert _canonical(serial) == _canonical(parallel)


def test_repeated_serial_runs_are_byte_identical():
    first = _canonical(FleetPool(jobs=1).run(_tasks(), cache=None))
    second = _canonical(FleetPool(jobs=1).run(_tasks(), cache=None))
    assert first == second
    # Not vacuous: the report actually carries fault content.
    report = json.loads(first[0])["planes"]["faults"]["report"]
    assert report["faults"]
    assert report["recovered_all"] is True
    assert report["nodes"]["node-2"]["crashes"] == 1
