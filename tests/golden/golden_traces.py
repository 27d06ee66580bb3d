"""Golden-trace capture: canonical scenarios with pinned seeds.

Each entry of :data:`SCENARIOS` is one conformance scenario — a canonical
scenario name, a pinned seed, a duration, and the oracle configuration to run
it under. :func:`capture` replays the scenario with the oracle in
``warn`` mode and returns a JSON-able record of everything the oracle
observed. The simulation kernel is deterministic, so the record is a
pure function of this registry plus the code: any drift between a fresh
capture and the snapshot in ``tests/golden/<id>.json`` means protocol or
oracle behaviour changed.

Regenerate snapshots (after an *intentional* behaviour change) with::

    PYTHONPATH=src python -m tests.golden.golden_traces [scenario ...]

and review the diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.scenarios import scenario_spec
from repro.oracle import OracleConfig, drain_created_oracles, oracle_policy
from repro.sim.units import SECOND

GOLDEN_DIR = Path(__file__).parent
DIFF_DIR = GOLDEN_DIR / "_diff"

#: scenario id -> (canonical scenario, pinned kwargs, duration, oracle-config kwargs).
SCENARIOS: dict[str, dict] = {
    "benign": {
        "scenario": "fig2-fault-free-triad-like",
        "kwargs": {"seed": 2},
        "duration_ns": 90 * SECOND,
        "oracle_config": {},
    },
    "fplus": {
        "scenario": "fig4-fplus-low-aex",
        "kwargs": {"seed": 4},
        "duration_ns": 60 * SECOND,
        "oracle_config": {},
    },
    # Short fig6 run: honest nodes' AEX onset is at t=104s, so only the
    # F- victim has violated by 90s.
    "fminus": {
        "scenario": "fig6-fminus-propagation",
        "kwargs": {"seed": 6},
        "duration_ns": 90 * SECOND,
        "oracle_config": {},
    },
    # Long fig6 run: past the AEX onset the honest nodes adopt the
    # victim's (ahead) timestamps — the full propagation cascade.
    "propagation": {
        "scenario": "fig6-fminus-propagation",
        "kwargs": {"seed": 6},
        "duration_ns": 150 * SECOND,
        "oracle_config": {},
    },
    "dos": {
        "scenario": "dos-ta-blackhole",
        "kwargs": {"seed": 8},
        "duration_ns": 180 * SECOND,
        "oracle_config": {"freshness_deadline_ns": 60 * SECOND},
    },
}


def capture(scenario_id: str) -> dict:
    """Run one scenario under the oracle and return its golden record."""
    spec = SCENARIOS[scenario_id]
    config = OracleConfig(**spec["oracle_config"])
    with oracle_policy("warn", config):
        drain_created_oracles()
        experiment = scenario_spec(spec["scenario"], **spec["kwargs"]).build()
        try:
            experiment.run(spec["duration_ns"])
        finally:
            drain_created_oracles()
    oracle = experiment.oracle
    assert oracle is not None, "policy was enabled; the cluster must have an oracle"
    return {
        "scenario": scenario_id,
        "experiment": experiment.name,
        "seed": spec["kwargs"]["seed"],
        "duration_ns": spec["duration_ns"],
        "oracle_config": dict(spec["oracle_config"]),
        "expected_pairs": sorted(list(pair) for pair in oracle.allowed),
        "violation_pairs": sorted(list(pair) for pair in oracle.violation_set()),
        "unexpected": [v.to_dict() for v in oracle.unexpected_violations()],
        "violations": [v.to_dict() for v in oracle.violations],
    }


def golden_path(scenario_id: str) -> Path:
    return GOLDEN_DIR / f"{scenario_id}.json"


def load_golden(scenario_id: str) -> dict:
    return json.loads(golden_path(scenario_id).read_text())


def write_golden(scenario_id: str, record: dict) -> Path:
    path = golden_path(scenario_id)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_diff_artifact(scenario_id: str, observed: dict) -> Path:
    """Snapshot a mismatching capture for CI to upload as an artifact."""
    DIFF_DIR.mkdir(exist_ok=True)
    path = DIFF_DIR / f"{scenario_id}.observed.json"
    path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str]) -> int:
    ids = argv or sorted(SCENARIOS)
    unknown = [i for i in ids if i not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}")
        return 2
    for scenario_id in ids:
        record = capture(scenario_id)
        path = write_golden(scenario_id, record)
        print(f"{path}: {len(record['violations'])} violation(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    raise SystemExit(main(sys.argv[1:]))
