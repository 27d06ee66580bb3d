"""Service reports pinned byte for byte across commits.

The ``--jobs 1`` vs ``--jobs 2`` comparisons elsewhere only prove a run
agrees with itself. These hashes pin the report against earlier code:
they were computed before the metrics moved from per-tick ``(value,
count)`` lists to count-keyed histograms, and any change to the
accounting, the RNG draw order or the percentile convention moves them.

The specs are the ones ``repro service --seed 11`` builds for the CI
``service-smoke`` runs, and the bytes are what ``--json`` writes, so the
hashes equal the ones that job checks for ``benign-j1.json`` and
``propagation-j1.json``.
"""

import hashlib
import json

import pytest

from repro.experiments.spec import ExperimentSpec

PINNED = {
    "benign": (
        1_000_000,
        "aa9e3c2891589640176fffa4ef530a7d8a61fb729a8ff1e9be7289c400335b4a",
    ),
    "fminus-propagation": (
        100_000,
        "73b29104919d60803f041f16bcb6674dfe51dbad819aa49500a5f31a65626ecb",
    ),
}


def preset_spec(attack: str, sessions: int) -> dict:
    attacks = (
        [{"type": "fminus", "victim": 3, "delay_ms": 100}]
        if attack == "fminus-propagation"
        else []
    )
    return {
        "name": f"service-{attack}",
        "seed": 11,
        "duration_s": 30.0,
        "nodes": 3,
        "environments": {str(i): "triad-like" for i in (1, 2, 3)},
        "attacks": attacks,
        "service": {
            "sessions": sessions,
            "arrival": "open",
            "quorum": 3,
            "think_ms": 20_000.0,
        },
    }


@pytest.mark.parametrize("attack", sorted(PINNED))
def test_report_bytes_are_pinned(attack):
    sessions, digest = PINNED[attack]
    experiment = ExperimentSpec.from_dict(preset_spec(attack, sessions)).run()
    report = experiment.service.report().to_dict()
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
