"""The hardened protocol's decisions pinned byte for byte across commits.

The golden traces never run ``protocol: hardened``, so without this file a
change to the true-chimer untaint would only show up in the benchmark's
digests. Every node of the two §V scenarios publishes to one
:class:`ChimerRegistry`; the hash covers each published report (who saw
whom, who agreed, the TA anchor) and each node's :class:`HardenedStats`.
The constants were computed before the hardened untaint and the service
quorum moved onto one Marzullo sweep, and must not move with any change
that claims to keep the protocol's behaviour.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.scenarios import scenario_spec
from repro.hardened.registry import ChimerRegistry

PINNED = {
    "hardened-fminus-propagation": (
        1422,
        "ef025a10057d67c0731d643a1a12ef087534bcca29e7199ed9c295340c2ee357",
    ),
    "hardened-fplus-suppressed-aex": (
        799,
        "1bc4178e3b556a646fc3e990d9ab88a4f924dfad15bef90b4c6c8f01f3a21cb8",
    ),
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_chimer_reports_and_stats_are_pinned(scenario):
    reports, digest = PINNED[scenario]
    spec = scenario_spec(scenario, seed=2)
    experiment = spec.build()
    registry = ChimerRegistry(experiment.sim)
    for node in experiment.cluster.nodes:
        node.registry = registry
    experiment.run(spec.duration_ns)

    h = hashlib.sha256()
    for r in registry.reports:
        h.update(
            repr((r.time_ns, r.reporter, r.observed, r.chimers, r.last_ta_timestamp_ns)).encode()
        )
    for node in experiment.cluster.nodes:
        h.update(repr((node.name, dataclasses.astuple(node.hardened_stats))).encode())
    assert len(registry.reports) == reports
    assert h.hexdigest() == digest
