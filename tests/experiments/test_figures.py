"""Tests for figure reproduction functions (reduced-duration runs).

The full-duration paper runs live in ``benchmarks/``; here each figure
executes a shortened version and checks the qualitative claims so the unit
suite stays fast.
"""

import pytest

from repro.analysis.stats import cdf_at
from repro.experiments import figures
from repro.experiments.scenarios import fminus_propagation
from repro.sim import units


class TestFigure1:
    def test_triad_like_cdf_has_paper_steps(self):
        result = figures.figure1(samples=3000)
        delays = result.triad_like_delays_ns
        assert cdf_at(delays, 10 * units.MILLISECOND) == pytest.approx(1 / 3, abs=0.03)
        assert cdf_at(delays, 532 * units.MILLISECOND) == pytest.approx(2 / 3, abs=0.03)
        assert cdf_at(delays, 1590 * units.MILLISECOND) == 1.0

    def test_low_aex_mode_near_5_4_minutes(self):
        result = figures.figure1(samples=1000)
        import numpy as np

        median = np.median(result.low_aex_delays_ns)
        assert median == pytest.approx(5.4 * units.MINUTE, rel=0.05)

    def test_render_contains_both_rows(self):
        result = figures.figure1(samples=100)
        text = result.render()
        assert "Fig1a" in text and "Fig1b" in text


class TestIncMonitorTable:
    def test_paper_values_reproduced(self):
        result = figures.inc_monitor_experiment(samples=3000)
        assert result.raw.mean == pytest.approx(632_181, abs=15)
        assert result.cleaned.mean == pytest.approx(632_182, abs=5)
        assert result.cleaned.std == pytest.approx(2.9, abs=0.6)
        assert result.cleaned.value_range <= 10
        assert 621_448 in result.outliers  # the warm-up run

    def test_render(self):
        result = figures.inc_monitor_experiment(samples=500)
        assert "INC" in result.render()


class TestFigure2Short:
    @pytest.fixture(scope="class")
    def fig2(self):
        return figures.run_experiment("fig2", seed=2, duration_ns=8 * units.MINUTE)

    def test_availability_above_98_percent(self, fig2):
        for value in fig2.availability().values():
            assert value > 0.90  # short run amortizes calibration less

    def test_all_nodes_calibrate_near_true_frequency(self, fig2):
        for frequency in fig2.frequencies_mhz().values():
            assert frequency == pytest.approx(2899.999, abs=1.5)

    def test_ta_reference_series_monotone(self, fig2):
        series = fig2.ta_reference_series(1)
        counts = [count for _, count in series]
        assert counts == sorted(counts)

    def test_render(self, fig2):
        assert "node-1" in fig2.render("Fig2")


class TestFigure6Short:
    @pytest.fixture(scope="class")
    def fig6(self):
        experiment = fminus_propagation(seed=6, switch_at_ns=60 * units.SECOND)
        return figures.Fig6Result(
            experiment=experiment.run(3 * units.MINUTE),
            duration_ns=3 * units.MINUTE,
            switch_at_ns=60 * units.SECOND,
        )

    def test_victim_frequency_skew_is_0_9(self, fig6):
        assert fig6.victim_frequency_skew() == pytest.approx(0.9, rel=1e-3)

    def test_honest_nodes_infected_after_switch(self, fig6):
        for index in (1, 2):
            series = dict(fig6.drift(index).samples)
            before = [d for t, d in series.items() if t < 55 * units.SECOND]
            after = [d for t, d in series.items() if t > 100 * units.SECOND]
            assert max(abs(d) for d in before) < 50 * units.MILLISECOND
            assert min(after) > units.SECOND  # multi-second forward skip

    def test_aex_counts_flat_then_linear(self, fig6):
        series = fig6.aex_count_series(1)
        at_switch = [count for t, count in series if t <= 60 * units.SECOND]
        at_end = series[-1][1]
        assert at_switch[-1] <= 2
        assert at_end > 50

    def test_honest_jumps_reported(self, fig6):
        jumps = fig6.honest_jumps_after_switch_ms(1)
        assert jumps, "expected forward jumps after the AEX switch"


class TestCalibrationAblation:
    def test_mean_only_strictly_overestimates(self):
        result = figures.calibration_ablation(seed=9, rounds=4)
        assert result.mean_only_error_ppm > 50  # rtt/sleep ≈ 150ppm scale
        assert abs(result.regression_error_ppm) < result.mean_only_error_ppm

    def test_render(self):
        result = figures.calibration_ablation(seed=9, rounds=2)
        assert "mean-only" in result.render()
