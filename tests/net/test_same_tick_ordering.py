"""Runs whose datagrams share delivery instants, pinned byte for byte.

The benchmark's log-normal delays almost never deliver two datagrams in
one nanosecond, so a change to the order of same-tick deliveries and
wake-ups would pass its digests unseen. A constant delay does it all the
time: a node's request to its peers is answered by all of them at once.
Below, a fifth to a third of the instants at which an endpoint receives
anything bring it two or more datagrams. Each case hashes every node's
``NodeStats`` and drift series. The constants were computed when each
datagram still went through a per-endpoint pump process, before the
network handed it straight to its endpoint, and must not move with any
change that claims to keep the protocol's behaviour.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.spec import ExperimentSpec


def _triad_like(nodes: int) -> dict[str, str]:
    return {str(index): "triad-like" for index in range(1, nodes + 1)}


SCENARIOS = {
    "plain-3": {
        "seed": 3,
        "duration_s": 60,
        "nodes": 3,
        "environments": _triad_like(3),
    },
    "enforce-mesh-6": {
        "seed": 4,
        "duration_s": 20,
        "nodes": 6,
        "environments": _triad_like(6),
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "churn": {
            "schedule": [
                {"t_s": 6.0, "node": 5, "action": "leave"},
                {"t_s": 8.0, "node": 5, "action": "join"},
            ]
        },
    },
    "crash-outage-3": {
        "seed": 5,
        "duration_s": 40,
        "nodes": 3,
        "environments": _triad_like(3),
        "faults": {
            "schedule": [
                {"t_s": 6.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                {"t_s": 8.0, "kind": "ta-outage", "duration_ms": 3000},
            ]
        },
    },
}

#: (one-way delay in µs, scenario) -> (datagrams sent, sha256 of stats + drift).
PINNED = {
    (100, "plain-3"): (
        1083,
        "031b2350062b67075956bf3a76e786081f039c77b0fe1f941e949f4e2c5eb30e",
    ),
    (100, "enforce-mesh-6"): (
        1022,
        "33f38a7dd6a30ac562f632e7dc88a7aa4419eaba9b3725a6dc2103fb22a3a22d",
    ),
    (100, "crash-outage-3"): (
        515,
        "920ef06dfc60e33975ee0e57684cf9cafc31202ee2f21b000280e1bb5d2a0b6e",
    ),
    (150, "plain-3"): (
        1083,
        "39b74fc978fee96eac7e968d31bba5e6a3639b34a40992159ade049cc923b106",
    ),
    (150, "enforce-mesh-6"): (
        1022,
        "8258477515dc13a58f743ec22aeed2231c90f80be7fc066756c1f67c9ef17ae1",
    ),
    (150, "crash-outage-3"): (
        515,
        "5129e036ce115603df8f3da073deebe854e68a295bed2fa3ac1239380c0b831b",
    ),
    (1000, "plain-3"): (
        1083,
        "0ebf51c71a707f861458a751687a735f911a6b6cfd993ab17650691f3438716a",
    ),
    (1000, "enforce-mesh-6"): (
        1024,
        "af68e4ac3b7d72c9169736294af355816504be78cb93c478ea392e1512d7ab52",
    ),
    (1000, "crash-outage-3"): (
        515,
        "e86fcd286e7075e5f9c5e7cddb73eb920058a11a1bcaeadc5f5f31a79cd59f6e",
    ),
}


@pytest.mark.parametrize("delay_us, scenario", sorted(PINNED))
def test_constant_delay_runs_are_pinned(delay_us, scenario):
    sent, digest = PINNED[delay_us, scenario]
    spec = ExperimentSpec.from_dict(
        {
            "name": f"same-tick-{scenario}-{delay_us}us",
            "network_delay": {"model": "constant", "delay_us": delay_us},
            **SCENARIOS[scenario],
        }
    )
    experiment = spec.run()

    h = hashlib.sha256()
    for index, node in enumerate(experiment.cluster.nodes, start=1):
        h.update(repr((node.name, dataclasses.astuple(node.stats))).encode())
        h.update(repr(experiment.drift(index).samples).encode())
    assert experiment.cluster.network.sent_count == sent
    assert h.hexdigest() == digest
