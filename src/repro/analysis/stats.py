"""Statistics helpers shared by analysis, tests, and benchmarks.

Small, dependency-light implementations of exactly the tools the paper's
evaluation uses: summary statistics with outlier removal (§IV-A1's INC
table), least-squares fits (drift rates), empirical CDFs (Fig. 1), and
ppm conversions (§IV-A2's drift discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    @property
    def value_range(self) -> float:
        """max − min (the paper reports a 10-INC range for the monitor)."""
        return self.maximum - self.minimum


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics (sample standard deviation)."""
    if not len(values):
        raise ConfigurationError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    std = float(array.std(ddof=1)) if len(array) > 1 else 0.0
    return Summary(
        count=len(array),
        mean=float(array.mean()),
        std=std,
        minimum=float(array.min()),
        maximum=float(array.max()),
        median=float(np.median(array)),
    )


def remove_outliers(values: Sequence[float], sigma: float = 4.0) -> list[float]:
    """Drop values more than ``sigma`` robust deviations from the median.

    Uses the median absolute deviation (scaled to be σ-consistent for
    normal data) so that the outliers themselves cannot mask the cut —
    with plain mean/std, the paper's 10 734-INC warm-up outlier would
    inflate σ enough to survive its own filter.
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    array = np.asarray(values, dtype=float)
    if len(array) < 3:
        return list(array)
    median = np.median(array)
    mad = np.median(np.abs(array - median))
    scale = 1.4826 * mad if mad > 0 else np.finfo(float).eps
    keep = np.abs(array - median) <= sigma * scale
    return [float(v) for v in array[keep]]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line fit y = slope·x + intercept."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares over paired samples."""
    if len(xs) != len(ys):
        raise ConfigurationError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ConfigurationError("linear fit needs at least 2 points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.all(x == x[0]):
        raise ConfigurationError("linear fit needs at least two distinct x values")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    total = float(((y - y.mean()) ** 2).sum())
    residual = float(((y - predicted) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def empirical_cdf(values: Sequence[float]) -> tuple[list[float], list[float]]:
    """Sorted values and their cumulative fractions (Fig. 1's format)."""
    if not len(values):
        raise ConfigurationError("cannot build a CDF from an empty sample")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    fractions = [(i + 1) / n for i in range(n)]
    return ordered, fractions


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values ≤ threshold."""
    if not len(values):
        raise ConfigurationError("cannot evaluate a CDF of an empty sample")
    return sum(1 for v in values if v <= threshold) / len(values)


def weighted_percentile(pairs: Iterable[tuple[float, int]], q: float) -> float:
    """Percentile of a count-weighted sample without expanding it.

    ``pairs`` are ``(value, count)`` records in any order — typically a
    count-keyed histogram's ``items()``, which is how the service layer
    holds millions of requests in a few hundred entries. Returns the
    smallest value whose cumulative count reaches ``q`` of the total (the
    inverted-CDF percentile of the expanded sample, numpy's
    ``method="inverted_cdf"``), so results are exact integers when the
    inputs are. Merging records of equal value cannot change the answer.
    """
    if not 0 <= q <= 1:
        raise ConfigurationError(f"percentile q must be within [0, 1], got {q}")
    ordered = sorted(pairs)
    total = sum(count for _, count in ordered)
    if total <= 0:
        raise ConfigurationError("cannot take a percentile of an empty sample")
    threshold = q * total
    cumulative = 0
    value = 0.0
    for value, count in ordered:
        cumulative += count
        if cumulative >= threshold:
            return value
    return value


def drift_rate_ppm(drift_series: Sequence[tuple[int, int]]) -> float:
    """Fitted drift rate in ppm from a (time_ns, drift_ns) series.

    1 ppm = 1 µs of drift per second; the paper quotes Triad's fault-free
    behaviour at ≈110 ppm against NTP's 15 ppm standard bound.
    """
    if len(drift_series) < 2:
        raise ConfigurationError("drift rate needs at least 2 samples")
    times = [t for t, _ in drift_series]
    drifts = [d for _, d in drift_series]
    fit = linear_fit(times, drifts)
    return fit.slope * 1e6  # ns-per-ns slope -> parts per million


def drift_rate_ms_per_s(drift_series: Sequence[tuple[int, int]]) -> float:
    """Fitted drift rate in ms/s (the unit of the paper's attack figures)."""
    return drift_rate_ppm(drift_series) / 1000.0
