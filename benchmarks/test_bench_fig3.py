"""FIG3 — Fig. 3: 8-hour fault-free run in the low-AEX environment.

Paper shape: a single FullCalib stay at the start (Fig. 3b); solo AEXs are
untainted through peers with forward jumps of tens of ms to the fastest
clock (the paper reads 50–70 ms off Fig. 3a); availability reaches 99.9%.
"""

import pytest

from repro.core.states import NodeState
from repro.experiments.figures import run_experiment
from repro.sim.units import HOUR, MILLISECOND


@pytest.fixture(scope="module")
def fig3():
    return run_experiment("fig3", seed=3, duration_ns=8 * HOUR)


def test_fig3a_drift(benchmark, fig3):
    benchmark.pedantic(
        lambda: run_experiment("fig3", seed=13, duration_ns=HOUR), rounds=1, iterations=1
    )
    print()
    print(fig3.render("Fig 3: 8 h fault-free, low-AEX environment"))

    # Peer untaints exist (solo AEXs) alongside TA references (correlated).
    total_peer_untaints = sum(
        fig3.experiment.node(i).stats.peer_untaints for i in (1, 2, 3)
    )
    total_ta = sum(fig3.experiment.node(i).stats.ta_references for i in (1, 2, 3))
    assert total_peer_untaints >= 10
    assert total_ta >= 10

    # Forward peer jumps in the tens-of-ms band dominate (paper: 50-70 ms).
    jumps = []
    for index in (1, 2, 3):
        jumps.extend(fig3.jumps_ms(index))
    print(f"peer forward jumps (ms): {[round(j, 1) for j in sorted(jumps)]}")
    assert jumps, "expected forward jumps at solo AEXs"
    in_band = [j for j in jumps if 2 <= j <= 500]
    assert len(in_band) / len(jumps) > 0.7


def test_fig3b_states(benchmark, fig3):
    benchmark.pedantic(lambda: fig3.timing_diagram(), rounds=1, iterations=1)
    print()
    print(fig3.timing_diagram(until_ns=HOUR, width=100))
    # Exactly one FullCalib stay per node over the whole 8 hours.
    for index in (1, 2, 3):
        assert fig3.full_calib_stays(index) == 1
        timeline = fig3.experiment.node(index).timeline
        # The stay is at the very start.
        assert timeline.changes[0].state is NodeState.FULL_CALIB
        # RefCalib stays exist but are brief.
        assert timeline.count_stays(NodeState.REF_CALIB) >= 1


def test_fig3_availability_reaches_99_9_percent(benchmark, fig3):
    benchmark.pedantic(fig3.availability, rounds=1, iterations=1)
    for index in (1, 2, 3):
        availability = fig3.experiment.availability(index)
        print(f"node-{index} availability: {availability * 100:.3f}%")
        assert availability > 0.999
