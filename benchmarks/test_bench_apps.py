"""EXT-APPS — application-level damage of the F− attack, and §V's rescue.

The paper motivates trusted time through applications (§I). This benchmark
runs three of them — a TimeStamping Authority, a lease manager, and a
BFT-style failure detector — on an honest node of a cluster under the
Fig. 6 F− propagation attack, and counts the concrete damage:

* post-dated timestamp tokens flagged by an external verifier,
* mutual-exclusion violations (double-granted leases),
* spurious leader-change timeouts against a live leader,

then repeats the identical workload on the §V hardened protocol, where
all three counts must drop to zero.
"""

import hashlib

import pytest

from repro.analysis.report import format_table
from repro.apps.leases import LeaseAuditor, LeaseManager
from repro.apps.timeouts import HeartbeatSource, TimeoutWatchdog
from repro.apps.timestamping import (
    TimestampingAuthority,
    TokenVerifier,
    VerificationReport,
)
from repro.experiments import scenarios
from repro.sim.units import MILLISECOND, MINUTE, SECOND


def run_workload(experiment, duration_ns):
    """Attach all three applications to honest node-1 and run."""
    sim = experiment.sim
    sim.run(until=10 * SECOND)  # let calibration settle
    node = experiment.node(1)

    tsa = TimestampingAuthority(node)
    verifier = TokenVerifier(sim, tsa, future_tolerance_ns=SECOND)
    token_report = VerificationReport()

    def issuer():
        index = 0
        while True:
            token = tsa.issue(hashlib.sha256(str(index).encode()).digest())
            if token is not None:
                verifier.verify(token, token_report)
            index += 1
            yield sim.timeout(2 * SECOND)

    sim.process(issuer())

    manager = LeaseManager(node)

    def lessor():
        while True:
            manager.acquire("db-shard", "tenant", 20 * SECOND)
            yield sim.timeout(SECOND)

    sim.process(lessor())

    watchdog = TimeoutWatchdog(
        sim, node, deadline_ns=2 * SECOND, poll_interval_ns=100 * MILLISECOND
    )
    HeartbeatSource(sim, watchdog, interval_ns=500 * MILLISECOND)

    sim.run(until=duration_ns)
    violations = LeaseAuditor().audit(manager)
    return {
        "post_dated_tokens": token_report.post_dated,
        "valid_tokens": token_report.valid,
        "lease_violations": len(violations),
        "worst_lease_overlap_s": (
            max((v.overlap_ns for v in violations), default=0) / 1e9
        ),
        "spurious_timeouts": watchdog.stats.spurious_timeouts,
        "heartbeats": watchdog.stats.heartbeats_seen,
    }


DURATION = 3 * MINUTE
SWITCH = 30 * SECOND


@pytest.fixture(scope="module")
def outcomes():
    baseline = run_workload(
        scenarios.fminus_propagation(seed=340, switch_at_ns=SWITCH), DURATION
    )
    hardened = run_workload(
        scenarios.hardened_fminus_propagation(seed=340, switch_at_ns=SWITCH), DURATION
    )
    return baseline, hardened


def test_applications_under_fminus(benchmark, outcomes):
    benchmark.pedantic(
        lambda: run_workload(
            scenarios.fminus_propagation(seed=341, switch_at_ns=SWITCH), 90 * SECOND
        ),
        rounds=1,
        iterations=1,
    )
    baseline, hardened = outcomes
    rows = [
        ["post-dated tokens", baseline["post_dated_tokens"], hardened["post_dated_tokens"]],
        ["lease double-grants", baseline["lease_violations"], hardened["lease_violations"]],
        ["worst lease overlap (s)", f"{baseline['worst_lease_overlap_s']:.1f}",
         f"{hardened['worst_lease_overlap_s']:.1f}"],
        ["spurious leader changes", baseline["spurious_timeouts"], hardened["spurious_timeouts"]],
    ]
    print()
    print(format_table(
        ["application damage", "baseline Triad", "S5 hardened"],
        rows,
        title=f"EXT-APPS: F- attack consequences at the application layer ({DURATION / 1e9:.0f}s)",
    ))

    # Baseline: every application is hurt.
    assert baseline["post_dated_tokens"] > 0
    assert baseline["lease_violations"] > 0
    assert baseline["spurious_timeouts"] > 0

    # Hardened: the same workload comes through clean.
    assert hardened["post_dated_tokens"] == 0
    assert hardened["lease_violations"] == 0
    assert hardened["spurious_timeouts"] == 0


def test_applications_healthy_without_attack(benchmark):
    """Control: the same workload on a fault-free cluster is damage-free."""
    outcome = benchmark.pedantic(
        lambda: run_workload(
            scenarios.scenario_spec("fig2-fault-free-triad-like", 342).build(), 2 * MINUTE
        ),
        rounds=1,
        iterations=1,
    )
    print(f"\nfault-free control: {outcome}")
    assert outcome["post_dated_tokens"] == 0
    assert outcome["lease_violations"] == 0
    assert outcome["spurious_timeouts"] == 0
    assert outcome["valid_tokens"] > 30
