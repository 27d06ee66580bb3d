"""Tests for statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    cdf_at,
    drift_rate_ms_per_s,
    drift_rate_ppm,
    empirical_cdf,
    linear_fit,
    remove_outliers,
    summarize,
    weighted_percentile,
)
from repro.errors import ConfigurationError
from repro.sim.units import SECOND
from tests.conftest import examples


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.median == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.value_range == 4.0
        assert summary.std == pytest.approx(1.5811, rel=1e-3)

    def test_single_value(self):
        summary = summarize([7.0])
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


class TestRemoveOutliers:
    def test_paper_style_outliers_removed(self):
        """Outliers far below a tight cluster must be removed even though
        they inflate the naive standard deviation (the paper's case)."""
        values = [632182.0] * 100 + [621448.0, 630012.0]
        cleaned = remove_outliers(values)
        assert 621448.0 not in cleaned
        assert 630012.0 not in cleaned
        assert len(cleaned) == 100

    def test_clean_data_untouched(self):
        values = [10.0, 11.0, 12.0, 9.0, 10.5]
        assert sorted(remove_outliers(values)) == sorted(values)

    def test_small_samples_passed_through(self):
        assert remove_outliers([1.0, 100.0]) == [1.0, 100.0]

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            remove_outliers([1.0, 2.0, 3.0], sigma=0)


class TestLinearFit:
    def test_exact_line_recovered(self):
        xs = [0, 1, 2, 3, 4]
        ys = [3.0 + 2.0 * x for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_r_squared_penalizes_noise(self):
        xs = list(range(10))
        ys = [x + ((-1) ** x) * 3 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.r_squared < 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1], [2])
        with pytest.raises(ConfigurationError):
            linear_fit([1, 2], [3])
        with pytest.raises(ConfigurationError):
            linear_fit([5, 5], [1, 2])


class TestCdf:
    def test_empirical_cdf_shape(self):
        values, fractions = empirical_cdf([30, 10, 20])
        assert values == [10, 20, 30]
        assert fractions == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_cdf_at(self):
        sample = [10, 532, 1590] * 10
        assert cdf_at(sample, 10) == pytest.approx(1 / 3)
        assert cdf_at(sample, 532) == pytest.approx(2 / 3)
        assert cdf_at(sample, 2000) == 1.0
        assert cdf_at(sample, 5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])
        with pytest.raises(ConfigurationError):
            cdf_at([], 1)


class TestDriftRates:
    def test_known_drift_rate(self):
        # +113 ms per second of reference time.
        series = [(i * SECOND, i * 113_000_000) for i in range(10)]
        assert drift_rate_ms_per_s(series) == pytest.approx(113.0)
        assert drift_rate_ppm(series) == pytest.approx(113_000.0)

    def test_ntp_scale_drift(self):
        # 15 ppm: 15 µs per second.
        series = [(i * SECOND, i * 15_000) for i in range(10)]
        assert drift_rate_ppm(series) == pytest.approx(15.0)

    def test_insufficient_samples(self):
        with pytest.raises(ConfigurationError):
            drift_rate_ppm([(0, 0)])


class TestWeightedPercentile:
    """The service layer folds requests into ``{value: count}`` histograms."""

    @settings(max_examples=examples(200), deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(1, 40)), min_size=1, max_size=30
        ),
        q=st.sampled_from([0.0, 0.5, 0.99, 0.999, 1.0]),
    )
    def test_histogram_fold_matches_the_expanded_sample(self, pairs, q):
        histogram: dict[int, int] = {}
        for value, count in pairs:
            histogram[value] = histogram.get(value, 0) + count
        expanded = np.repeat([v for v, _ in pairs], [c for _, c in pairs])
        # The smallest value whose cumulative count reaches q of the total:
        # numpy's inverted-CDF ("lower") percentile of the expanded sample.
        expected = np.quantile(expanded, q, method="inverted_cdf")
        assert weighted_percentile(histogram.items(), q) == expected
        assert weighted_percentile(pairs, q) == expected

    def test_empty_histogram_is_rejected(self):
        with pytest.raises(ConfigurationError, match="empty sample"):
            weighted_percentile({}.items(), 0.5)

    def test_q_outside_the_unit_interval_is_rejected(self):
        with pytest.raises(ConfigurationError, match="within"):
            weighted_percentile({1: 1}.items(), 1.5)
