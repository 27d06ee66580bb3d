"""Service reports pinned byte for byte across commits.

The ``--jobs 1`` vs ``--jobs 2`` comparisons elsewhere only prove a run
agrees with itself. These hashes pin the report against earlier code:
any change to the accounting, the RNG draw order or the percentile
convention moves them. Besides the benign and F− propagation runs, the
pins reach what those two do not: shedding with a standing backlog
(``overload``), deadline expiry (``expiry``), the closed loop's
completion feedback (``closed-loop``) and partial drains on a
fractional service credit (``fractional-credit``).

The five open-loop hashes were re-pinned when open-loop arrivals became
per-kind Poisson rows drawn in batches on each front-end's own
``service/<node>/arrivals`` stream (the same law as the earlier
per-tick Poisson count split by a multinomial, by Poisson thinning, but
other draws). ``closed-loop`` did not move: the closed loop still draws
its binomial and multinomial per tick on ``service/<node>``.

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
        "f8602074dfcde0a1e37f3599d2ce6ae0e06b7e896a3e5fd5d54ac81112265482",
    ),
    "fminus-propagation": (
        "fminus-propagation",
        100_000,
        {},
        "fd141c0024ee194f00a3b6b7f394f33f87e3d115d3186721efe8bbba75b6e633",
    ),
    "overload": (
        "benign",
        1_000_000,
        {"rate_rps": 400_000.0},
        "fe727c2b58d51cead4bba6b330e64065959a99db2fc57bc7f43b0ca2a46d7426",
    ),
    "expiry": (
        "benign",
        1_000_000,
        {"rate_rps": 400_000.0, "queue_capacity": 5000, "deadline_ms": 20.0},
        "681771f117530583c9af7c7bb434955a5824ef8c29efc19e763cad3661638502",
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
        "a8b8302e436d9fe3b6e9312333773326d3ba4c6c95ec1547850f9d3fac149a77",
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
