"""Network one-way delay models.

The honest component of a datagram's latency is drawn from one of these
models; the adversary (:mod:`repro.net.adversary`) adds its own delay on
top. Keeping the two separate lets experiments measure exactly how much of
an observed roundtrip is attack-induced — which is also what makes the
F+/F− regression analysis in the benchmarks exact.

The paper runs all nodes and the TA on a single machine, so its baseline
delays are LAN/loopback scale (tens to hundreds of microseconds). The
default model reflects that; experiments can substitute anything
implementing the :class:`DelayModel` protocol.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.units import MICROSECOND


class DelayModel(Protocol):
    """Sampler of one-way network delays (nanoseconds)."""

    def sample(self, rng: np.random.Generator) -> int:
        """Draw the one-way delay for one datagram."""
        ...  # pragma: no cover


class ConstantDelay:
    """Fixed one-way delay; the workhorse for deterministic tests."""

    def __init__(self, delay_ns: int) -> None:
        if delay_ns < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay_ns}")
        self.delay_ns = delay_ns

    def sample(self, rng: np.random.Generator) -> int:
        return self.delay_ns


class UniformDelay:
    """Uniform delay in ``[low_ns, high_ns]``."""

    def __init__(self, low_ns: int, high_ns: int) -> None:
        if not 0 <= low_ns <= high_ns:
            raise ConfigurationError(f"invalid uniform delay range [{low_ns}, {high_ns}]")
        self.low_ns = low_ns
        self.high_ns = high_ns

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low_ns, self.high_ns + 1))


class LogNormalDelay:
    """Log-normal delay with a hard floor — the classic shape of real RTTs.

    Parameterized by the *median* delay and a shape sigma (in log space),
    because medians are what one reads off latency dashboards.
    """

    def __init__(self, median_ns: int, sigma: float = 0.25, floor_ns: int = 0) -> None:
        if median_ns <= 0:
            raise ConfigurationError(f"median must be positive, got {median_ns}")
        if sigma < 0 or floor_ns < 0:
            raise ConfigurationError("sigma and floor must be non-negative")
        self.median_ns = median_ns
        self.sigma = sigma
        self.floor_ns = floor_ns
        self._log_median = np.log(median_ns)

    def sample(self, rng: np.random.Generator) -> int:
        delay = rng.lognormal(mean=self._log_median, sigma=self.sigma)
        return max(int(delay), self.floor_ns)


def paper_lan_delay() -> LogNormalDelay:
    """Baseline one-way delay used across the reproduction.

    Median 150 µs with moderate jitter. The jitter magnitude is tuned so
    that Triad's short-exchange calibration lands in the error band the
    paper observes (F_calib off by tens to ~200 ppm, e.g. −119 ppm for
    Node 3 in its Fig. 2 and −219 ppm for Node 1 in its Fig. 3): the
    regression over 0 s / 1 s sleeps converts per-exchange delay jitter
    directly into ppm-scale frequency error.
    """
    return LogNormalDelay(median_ns=150 * MICROSECOND, sigma=0.35, floor_ns=20 * MICROSECOND)
