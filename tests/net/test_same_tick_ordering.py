"""Runs whose datagrams share delivery instants, pinned byte for byte.

The benchmark's log-normal delays almost never deliver two datagrams in
one nanosecond, so a change to the order of same-tick deliveries and
wake-ups would pass its digests unseen. A constant delay does it all the
time: a node's request to its peers is answered by all of them at once.
Below, a fifth to a third of the instants at which an endpoint receives
anything bring it two or more datagrams. Each case hashes every node's
``NodeStats`` and drift series. The constants must not move with any
change that claims to keep the protocol's behaviour.

Four moved when messages came to be handled inside their delivery event
(``docs/simulation.md``), each for a named cause:

* ``crash-outage-3`` (all three delays): a crashed node's interrupted
  message loop no longer leaves a stale receive behind that swallows the
  first datagram after its restart;
* ``enforce-mesh-6`` at 1000 µs: node-6's request reaches node-3 at
  8.549 s, the nanosecond in which node-3's untaint returns it to OK. It
  is now handled at delivery, ahead of that wake-up, while node-3 is still
  tainted, so node-3 serves 69 peer requests, not 70.
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
        547,
        "183b3900867ef89e1d8c10000364b0422d76b983ecbb6c24a0c0a9b461e15fc9",
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
        547,
        "b8044ad9ef89b141ac98b03f5c6714b63056527f06c678d7eb48e68abe953911",
    ),
    (1000, "plain-3"): (
        1083,
        "0ebf51c71a707f861458a751687a735f911a6b6cfd993ab17650691f3438716a",
    ),
    (1000, "enforce-mesh-6"): (
        1022,
        "3aa4aa1b04f9042b745ec5143c63ddb64b13407ef9a53a4e0f5475a52447375a",
    ),
    (1000, "crash-outage-3"): (
        547,
        "ad2c97f4b5b503737683052cb737bcca1c473b6648ee3c983294e6a9de5376fc",
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
