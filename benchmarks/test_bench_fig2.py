"""FIG2 — Fig. 2: 30-minute fault-free run under Triad-like AEXs.

Paper shape: all nodes calibrate within ~±150 ppm of F_tsc (their values:
2900.089 / 2900.113 / 2899.653 MHz); effective drift ≈ 110 ppm sawtooth that
resets to zero whenever a correlated simultaneous AEX forces everyone to the
TA (Fig. 2b's message-count steps); availability > 98%.
"""

import pytest

from repro.analysis.stats import drift_rate_ppm
from repro.experiments.figures import run_experiment
from repro.sim.units import MILLISECOND, MINUTE, SECOND


@pytest.fixture(scope="module")
def fig2():
    return run_experiment("fig2", seed=2, duration_ns=30 * MINUTE)


def test_fig2a_drift(benchmark, fig2):
    benchmark.pedantic(
        lambda: run_experiment("fig2", seed=12, duration_ns=5 * MINUTE), rounds=1, iterations=1
    )
    print()
    print(fig2.render("Fig 2: 30 min fault-free, Triad-like AEXs"))

    # Calibration error band: each node within ~±300 ppm of the true rate
    # (paper band: +31 / +39 / -119 ppm — same order).
    for name, frequency_mhz in fig2.frequencies_mhz().items():
        error_ppm = (frequency_mhz / 2899.999 - 1) * 1e6
        assert abs(error_ppm) < 300, f"{name} calibrated {error_ppm:+.0f} ppm off"

    # Sawtooth: drift returns to ~0 shortly after every TA reference.
    node = fig2.experiment.node(1)
    samples = dict(fig2.drift(1).samples)
    times = sorted(samples)
    import bisect

    for reference_time in node.stats.ta_reference_times_ns[1:]:
        index = bisect.bisect_right(times, reference_time + 2 * SECOND)
        if index < len(times):
            assert abs(samples[times[index]]) < 5 * MILLISECOND

    # Between resets the cluster follows the fastest clock: positive drift
    # at roughly (F_tsc/min F_calib - 1).
    frequencies_hz = [
        fig2.experiment.node(i).stats.latest_frequency_hz for i in (1, 2, 3)
    ]
    expected_ppm = (fig2.experiment.cluster.machine.tsc.frequency_hz / min(frequencies_hz) - 1) * 1e6
    assert expected_ppm > 0
    # Drift magnitude reached between resets is consistent with that rate.
    max_drift_ms = fig2.drift(1).max_abs_drift_ns() / 1e6
    assert 10 < max_drift_ms < 600


def test_fig2b_ta_messages(benchmark, fig2):
    benchmark.pedantic(lambda: fig2.ta_reference_series(1), rounds=1, iterations=1)
    print()
    for index in (1, 2, 3):
        series = fig2.ta_reference_series(index, step_ns=MINUTE)
        print(f"node-{index} TA references per minute-grid: "
              f"{[count for _, count in series]}")
    # Every node receives several TA references over 30 minutes (the
    # correlated simultaneous AEXs), and counts only ever grow.
    for index in (1, 2, 3):
        series = fig2.ta_reference_series(index)
        counts = [count for _, count in series]
        assert counts == sorted(counts)
        assert 2 <= counts[-1] <= 30
    # Correlated taint: all three nodes' totals match (they reset together).
    totals = {fig2.experiment.node(i).stats.ta_references for i in (1, 2, 3)}
    assert len(totals) == 1


def test_fig2_availability_above_98_percent(benchmark, fig2):
    benchmark.pedantic(fig2.availability, rounds=1, iterations=1)
    for index in (1, 2, 3):
        availability = fig2.experiment.availability(index)
        print(f"node-{index} availability: {availability * 100:.2f}%")
        assert availability > 0.98
