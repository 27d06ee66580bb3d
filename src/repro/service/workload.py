"""Session workload generation at service scale.

Millions of client sessions cannot be million simulator processes — at
Python speed the kernel would spend its whole budget context-switching
generators. The workload layer therefore keeps sessions *aggregate*: per
front-end tick it draws "how many sessions fire this tick" from the
arrival model's distribution (seeded numpy streams, so runs are exactly
reproducible) and splits the batch across request kinds with one
multinomial draw. Requests then travel as tuple batch records
(:mod:`repro.service.frontend`), never as per-request objects — the
zero-churn design that lets a laptop simulate a 10⁶-session service.

Two arrival models, the classic pair from queueing analysis:

* **open loop** — sessions fire independently of the service's state
  (Poisson arrivals at the aggregate rate). Overload keeps arriving;
  queues grow; shedding is the only relief valve.
* **closed loop** — each session waits for its response, thinks for an
  exponential time, then fires again. Offered load self-throttles when
  the service slows down, which is why closed-loop benchmarks famously
  hide overload pathologies the open-loop model exposes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, SECOND

class OpenLoopArrivals:
    """Poisson arrivals at a fixed aggregate rate, response-independent."""

    def __init__(self, rng: np.random.Generator, rate_rps: float, tick_ns: int) -> None:
        if rate_rps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_rps}")
        self._rng = rng
        self._lam = rate_rps * tick_ns / SECOND

    def draw(self) -> int:
        """Sessions firing in the next tick."""
        return int(self._rng.poisson(self._lam))

    def absorb(self, count: int) -> None:
        """Completions feed nothing back in an open loop."""


class ClosedLoopArrivals:
    """Sessions cycle think → request → response → think.

    The thinking population shrinks by every draw and grows back as the
    front-end completes (serves, sheds, or expires) requests via
    :meth:`absorb` — sessions stuck in a backed-up queue cannot offer new
    load, the closed loop's defining feedback.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        sessions: int,
        think_ms: float,
        tick_ns: int,
    ) -> None:
        if sessions < 1:
            raise ConfigurationError(f"need at least one session, got {sessions}")
        if think_ms <= 0:
            raise ConfigurationError(f"think time must be positive, got {think_ms}")
        self._rng = rng
        self._thinking = sessions
        #: P(a thinking session fires within one tick), exponential think.
        self._fire_probability = 1.0 - math.exp(-tick_ns / (think_ms * MILLISECOND))

    @property
    def thinking(self) -> int:
        """Sessions currently in their think phase."""
        return self._thinking

    def draw(self) -> int:
        if self._thinking <= 0:
            return 0
        count = int(self._rng.binomial(self._thinking, self._fire_probability))
        self._thinking -= count
        return count

    def absorb(self, count: int) -> None:
        self._thinking += count


class SessionWorkload:
    """One front-end's slice of the session population.

    Wraps an arrival model plus the request-kind mix; :meth:`draw`
    returns per-kind counts for one tick and :meth:`absorb` returns
    completed sessions to the arrival model (a no-op for open loops).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        arrivals: OpenLoopArrivals | ClosedLoopArrivals,
        lease_fraction: float,
        timeout_fraction: float,
    ) -> None:
        self._rng = rng
        self._arrivals = arrivals
        # Clamped: fractions that sum to 1 leave a share of about -1e-16,
        # which the multinomial rejects. An ndarray skips numpy's
        # per-draw list conversion and draws the same counts.
        timestamp_fraction = max(1.0 - lease_fraction - timeout_fraction, 0.0)
        self._mix = np.array(
            [timestamp_fraction, lease_fraction, timeout_fraction], dtype=np.float64
        )

    def draw(self) -> tuple[int, int, int]:
        """(timestamp, lease, timeout) request counts for the next tick."""
        count = self._arrivals.draw()
        if count <= 0:
            return (0, 0, 0)
        n_ts, n_lease, n_to = self._rng.multinomial(count, self._mix).tolist()
        return (n_ts, n_lease, n_to)

    def absorb(self, count: int) -> None:
        if count > 0:
            self._arrivals.absorb(count)
