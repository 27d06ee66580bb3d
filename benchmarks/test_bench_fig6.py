"""FIG6 — Fig. 6: F− attack on Node 3 and its propagation to honest nodes.

Paper numbers/shape: F₃ᶜᵃˡ = 2609.951 MHz (0.9 × F_tsc from +100 ms on the
0 s sleeps); Node 3 drifts at +113 ms/s from the start. Nodes 1 and 2 drift
honestly while AEX-free (t < 104 s), then — once their Triad-like AEXs begin
— adopt Node 3's always-ahead timestamps: forward time-skips, after which
they alternate between their own clocks and further jumps (Fig. 6a). Their
cumulative AEX counts stay ≈0 then grow linearly (Fig. 6b).
"""

import pytest

from repro.analysis.stats import drift_rate_ms_per_s
from repro.experiments.figures import run_experiment
from repro.experiments.scenarios import fminus_propagation
from repro.sim.units import MILLISECOND, MINUTE, SECOND


SWITCH_NS = 104 * SECOND


@pytest.fixture(scope="module")
def fig6():
    return run_experiment("fig6", seed=6, duration_ns=7 * MINUTE)


def test_fig6a_drift(benchmark, fig6):
    benchmark.pedantic(
        lambda: fminus_propagation(seed=16, switch_at_ns=60 * SECOND).run(3 * MINUTE),
        rounds=1,
        iterations=1,
    )
    print()
    print(fig6.render("Fig 6: F- on node-3, honest AEX onset at t=104 s"))

    # Victim tilt: 0.9x (paper: 2609.951 MHz).
    assert fig6.victim_frequency_skew() == pytest.approx(0.9, rel=2e-3)

    # Victim drift rate ≈ +111..113 ms/s.
    window = fig6.drift(3).window(20 * SECOND, SWITCH_NS)
    rate = drift_rate_ms_per_s(window)
    print(f"victim drift rate: {rate:+.2f} ms/s (paper: +113)")
    assert rate == pytest.approx(+111, abs=4)

    # Honest nodes: near-zero drift before the switch...
    for index in (1, 2):
        before = fig6.drift(index).window(0, SWITCH_NS - SECOND)
        assert max(abs(d) for _, d in before) < 50 * MILLISECOND
    # ...then dragged forward to the infected node's time-scale.
    for index in (1, 2):
        final = fig6.drift(index).final_drift_ns()
        print(f"node-{index} final drift: {final / 1e9:+.2f} s")
        assert final > SECOND

    # Steady-state re-infection jumps are quantized by the Triad-like
    # inter-AEX delays times the 11.1% rate surplus: ≈{1.1, 59, 176} ms.
    jumps = fig6.honest_jumps_after_switch_ms(1)[1:]  # skip the initial skip
    close_to_quantum = [
        j for j in jumps if min(abs(j - q) for q in (1.1, 59, 176, 235)) < 25
    ]
    assert len(close_to_quantum) / max(len(jumps), 1) > 0.6


def test_fig6b_aex_counts(benchmark, fig6):
    benchmark.pedantic(lambda: fig6.aex_count_series(1), rounds=1, iterations=1)
    print()
    for index in (1, 2, 3):
        series = fig6.aex_count_series(index, step_ns=30 * SECOND)
        print(f"node-{index} cumulative AEXs: {[c for _, c in series]}")

    # Victim's count grows linearly from the start.
    victim_series = fig6.aex_count_series(3, step_ns=30 * SECOND)
    at_switch = next(c for t, c in victim_series if t >= SWITCH_NS)
    assert at_switch > 80  # ~1.4 AEX/s * 104 s

    # Honest counts ~0 before the switch, then linear.
    for index in (1, 2):
        series = fig6.aex_count_series(index, step_ns=30 * SECOND)
        before = [c for t, c in series if t < SWITCH_NS]
        final = series[-1][1]
        assert before[-1] <= 2
        assert final > 200


def test_fig6_propagation_is_transitive(benchmark, fig6):
    benchmark.pedantic(lambda: fig6.drift(1).final_drift_ns(), rounds=1, iterations=1)
    """Honest nodes infect each other: node 1's and node 2's clocks end up
    within each other's reach of node 3's, far from reference time."""
    drift_1 = fig6.drift(1).final_drift_ns()
    drift_2 = fig6.drift(2).final_drift_ns()
    drift_3 = fig6.drift(3).final_drift_ns()
    assert abs(drift_1 - drift_2) < abs(drift_1) / 2
    assert drift_3 >= max(drift_1, drift_2) - 500 * MILLISECOND
