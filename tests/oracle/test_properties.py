"""Property tests: the oracle is silent on benign runs, loud on bad clocks.

Two Hypothesis-driven statements:

1. *No false positives* — arbitrary benign schedules (random seeds,
   random AEX pokes) never produce a violation. The protocol's own
   recovery machinery (peer/TA untaints) keeps every invariant intact,
   so anything the oracle reports on such a run would be a bug in the
   oracle.
2. *No false negatives* — an injected out-of-bound TSC offset (the
   silent-failure primitive) always produces exactly one ``drift-bound``
   edge and exactly one ``state-soundness`` edge per node, and nothing
   else: the clock is wrong, the node still says ``OK``, and the
   edge-triggering keeps the record at one violation per condition.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.oracle import watch_cluster
from repro.sim import units

from tests.core.conftest import build_cluster

benign_pokes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # node to taint
        st.integers(min_value=50, max_value=2000),  # delay before poke (ms)
    ),
    min_size=0,
    max_size=6,
)


class TestNoFalsePositives:
    @given(pokes=benign_pokes, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_benign_schedules_are_violation_free(self, pokes, seed):
        sim, cluster = build_cluster(seed=seed)
        oracle = watch_cluster(sim, cluster.nodes)
        sim.run(until=3 * units.SECOND)  # initial calibration

        def schedule():
            for target, delay_ms in pokes:
                yield sim.timeout(delay_ms * units.MILLISECOND)
                cluster.monitoring_port(target).fire("benign-poke")

        sim.process(schedule())
        total_ms = sum(delay for _, delay in pokes)
        sim.run(until=sim.now + (total_ms + 5000) * units.MILLISECOND)
        oracle.finalize()
        assert oracle.violations == [], oracle.render_report()


class TestNoFalseNegatives:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        offset_ticks=st.integers(min_value=2_000_000_000, max_value=9_000_000_000),
        behind=st.booleans(),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_injected_offset_fires_exactly_one_edge_per_node(self, seed, offset_ticks, behind):
        # 2e9..9e9 ticks at the paper's ~2.9 GHz TSC is ~0.7..3.1 s of
        # clock error — always beyond the 500 ms bound, in either direction.
        # The long monitor interval keeps recalibration out of the window
        # so the edge cannot re-arm.
        sim, cluster = build_cluster(seed=seed, monitor_interval_ns=60 * units.SECOND)
        oracle = watch_cluster(sim, cluster.nodes)
        sim.run(until=5 * units.SECOND)
        cluster.machine.tsc.apply_offset(-offset_ticks if behind else offset_ticks)
        sim.run(until=sim.now + 2 * units.SECOND)
        oracle.finalize()

        expected_pairs = {
            (node.name, invariant)
            for node in cluster.nodes
            for invariant in ("drift-bound", "state-soundness")
        }
        assert oracle.violation_set() == expected_pairs, oracle.render_report()
        # Edge triggering: exactly one record per (node, invariant).
        keys = [v.key for v in oracle.violations]
        assert len(keys) == len(set(keys))
        sign = -1 if behind else 1
        for violation in oracle.violations:
            assert sign * violation.measured_ns > 500 * units.MILLISECOND
