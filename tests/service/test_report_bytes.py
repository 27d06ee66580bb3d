"""Service reports pinned byte for byte across commits.

The ``--jobs 1`` vs ``--jobs 2`` comparisons elsewhere only prove a run
agrees with itself. These hashes pin the report against earlier code:
any change to the accounting, the RNG draw order or the percentile
convention moves them. ``benign`` and ``fminus-propagation`` were
computed before the metrics moved from per-tick ``(value, count)``
lists to count-keyed histograms; the other four were computed before
the front-end's admit, expire and drain steps became one tick path, and
reach what the first two do not: shedding with a standing backlog
(``overload``), deadline expiry (``expiry``), the closed loop's
completion feedback (``closed-loop``) and partial drains on a
fractional service credit (``fractional-credit``).

The specs are the ones ``repro service --seed 11`` builds, and the
bytes are what ``--json`` writes, so the hashes equal the ones the CI
``service-smoke`` job checks: ``benign-j1.json`` and
``propagation-j1.json``, ``overload-j1.json`` (``--rate-rps 400000``)
and ``closed-j1.json`` (``--arrival closed --think-ms 2000``).
"""

import functools
import hashlib
import json

import pytest

from repro.experiments.spec import ExperimentSpec

#: name -> (attack, sessions, service-block overrides, sha256 of the report)
PINNED = {
    "benign": (
        "benign",
        1_000_000,
        {},
        "aa9e3c2891589640176fffa4ef530a7d8a61fb729a8ff1e9be7289c400335b4a",
    ),
    "fminus-propagation": (
        "fminus-propagation",
        100_000,
        {},
        "73b29104919d60803f041f16bcb6674dfe51dbad819aa49500a5f31a65626ecb",
    ),
    "overload": (
        "benign",
        1_000_000,
        {"rate_rps": 400_000.0},
        "1504166df048b714e077f7478f630b22cb499679e569b20db2ed54d4ce6dcba9",
    ),
    "expiry": (
        "benign",
        1_000_000,
        {"rate_rps": 400_000.0, "queue_capacity": 5000, "deadline_ms": 20.0},
        "f020f1cf4fb0cd05b8c4eee197ebb0d2f1609db9f8a68ce7112bb3b431de4d43",
    ),
    "closed-loop": (
        "benign",
        1_000_000,
        {"arrival": "closed", "think_ms": 2000.0},
        "ad9fb88f0eaf8796a564cf0ab41092201791ae1b8f05a3fc72baf839179e1b40",
    ),
    "fractional-credit": (
        "benign",
        1_000_000,
        {"rate_rps": 99_000.0, "service_rate_rps": 33_350.0},
        "dba3a4fedb039b5f46e0e325ed8864f2492726e0ed362ba1773b4425aa25ea43",
    ),
}


def preset_spec(attack: str, sessions: int, overrides: dict) -> dict:
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
            **overrides,
        },
    }


@functools.lru_cache(maxsize=None)
def run_report(name: str) -> dict:
    """The JSON-able report of pin ``name`` (run once per session, read-only)."""
    attack, sessions, overrides, _ = PINNED[name]
    experiment = ExperimentSpec.from_dict(preset_spec(attack, sessions, overrides)).run()
    return experiment.service.report().to_dict()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    blob = json.dumps(run_report(name), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED[name][3]


def test_pinned_specs_reach_their_paths():
    """Each new pin exercises the front-end path it is there to guard."""
    overload = run_report("overload")
    assert overload["shed"] > 0 and overload["wait_p50_ns"] > 0
    expiry = run_report("expiry")
    assert expiry["expired"] > 2_000_000
    closed = run_report("closed-loop")
    assert closed["arrival"] == "closed" and closed["shed"] > 0
    assert run_report("fractional-credit")["wait_p99_ns"] > 0
