"""Randomized protocol fuzzing with hypothesis.

Generates random hostile schedules — AEX bursts on arbitrary cores,
network loss, attacker delay rules, TSC manipulations, TA outages — runs
a short cluster simulation, and asserts the invariants that must hold
under *any* adversarial behaviour:

1. served timestamps are strictly monotonic per node;
2. a node never serves while tainted or calibrating;
3. the simulation itself never deadlocks or crashes;
4. with the TA reachable infinitely often, every node eventually returns
   to OK after the hostilities stop.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import TimestampClient
from repro.core.cluster import ClusterConfig, TA_NAME, TriadCluster
from repro.core.node import TriadNodeConfig
from repro.core.states import NodeState
from repro.net.delays import ConstantDelay
from repro.sim import Simulator, units

from tests.conftest import examples


def build(seed):
    sim = Simulator(seed=seed)
    config = ClusterConfig(
        delay_model=ConstantDelay(100 * units.MICROSECOND),
        node_config=TriadNodeConfig(
            calibration_rounds=1,
            calibration_sleeps_ns=(0, 50 * units.MILLISECOND),
            monitor_calibration_samples=4,
            ta_timeout_margin_ns=200 * units.MILLISECOND,
            ta_retry_backoff_ns=200 * units.MILLISECOND,
        ),
    )
    return sim, TriadCluster(sim, config)


hostile_events = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # target node
        st.sampled_from(["aex", "aex-burst", "tsc-offset", "tsc-scale", "drop-on", "drop-off"]),
        st.integers(min_value=10, max_value=2000),  # delay before event (ms)
    ),
    min_size=1,
    max_size=12,
)


class TestHostileSchedules:
    @given(schedule=hostile_events, seed=st.integers(min_value=0, max_value=2**16))
    @settings(
        max_examples=examples(25),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_invariants_under_arbitrary_hostility(self, schedule, seed):
        sim, cluster = build(seed)
        sim.run(until=3 * units.SECOND)  # allow initial calibration
        client = TimestampClient(
            sim, cluster.node(1), poll_interval_ns=20 * units.MILLISECOND
        )

        def chaos():
            for target, action, delay_ms in schedule:
                yield sim.timeout(delay_ms * units.MILLISECOND)
                port = cluster.monitoring_port(target)
                if action == "aex":
                    port.fire("fuzz")
                elif action == "aex-burst":
                    for _ in range(5):
                        port.fire("fuzz-burst")
                elif action == "tsc-offset":
                    cluster.machine.tsc.apply_offset(-50_000_000)
                elif action == "tsc-scale":
                    cluster.machine.tsc.set_scale(1.0 + 0.01 * target)
                elif action == "drop-on":
                    cluster.network.drop_probability = 0.5
                elif action == "drop-off":
                    cluster.network.drop_probability = 0.0

        sim.process(chaos())
        total_hostility_ms = sum(delay for _, _, delay in schedule)
        sim.run(until=sim.now + (total_hostility_ms + 100) * units.MILLISECOND)

        # Invariant 2 is enforced structurally (get_timestamp raises), so
        # a successful poll while non-OK would have crashed the client.
        # Invariant 1: monotonicity.
        assert client.stats.monotonic()

        # Invariant 4: stop hostilities, let things settle, expect OK.
        cluster.network.drop_probability = 0.0
        cluster.machine.tsc.set_scale(1.0)
        sim.run(until=sim.now + 30 * units.SECOND)
        for node in cluster.nodes:
            assert node.state is NodeState.OK, (
                f"{node.name} stuck in {node.state} after recovery window"
            )
            # Clock re-tracks reference after recovery (scale reset to 1,
            # any miscalibration re-detected by the monitor).
            assert abs(node.drift_ns()) < 500 * units.MILLISECOND

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=examples(10), deadline=None)
    def test_calibration_deterministic_per_seed(self, seed):
        """Same seed -> bit-identical calibration, twice."""
        results = []
        for _ in range(2):
            sim, cluster = build(seed)
            sim.run(until=5 * units.SECOND)
            results.append(
                tuple(node.stats.latest_frequency_hz for node in cluster.nodes)
            )
        assert results[0] == results[1]
