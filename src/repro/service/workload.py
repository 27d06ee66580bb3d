"""Session workload generation at service scale.

Millions of client sessions cannot be million simulator processes — at
Python speed the kernel would spend its whole budget context-switching
generators. The workload layer therefore keeps sessions *aggregate*: per
front-end tick it hands out how many sessions of each request kind fire
(timestamp, lease, timeout), drawn from the arrival model's distribution
on seeded numpy streams, so runs are exactly reproducible. Requests then
travel as tuple batch records (:mod:`repro.service.frontend`), never as
per-request objects — the zero-churn design that lets a laptop simulate
a 10⁶-session service.

Two arrival models, the classic pair from queueing analysis:

* **open loop** — sessions fire independently of the service's state
  (Poisson arrivals at the aggregate rate). Overload keeps arriving;
  queues grow; shedding is the only relief valve. Because nothing feeds
  back, the per-kind counts are drawn :data:`ARRIVAL_BATCH_ROWS` ticks
  ahead: by Poisson thinning a Poisson(λ) count split multinomially by
  the mix ``p`` has the law of three independent Poisson(λ·p_k) counts,
  so one ``poisson(λ·p, size=(K, 3))`` call covers K ticks, one row
  each, on the front-end's own ``service/<node>/arrivals`` stream.
* **closed loop** — each session waits for its response, thinks for an
  exponential time, then fires again. Offered load self-throttles when
  the service slows down, which is why closed-loop benchmarks famously
  hide overload pathologies the open-loop model exposes. The count
  depends on the thinking population, so it is drawn per tick (one
  binomial, then one multinomial split across kinds).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, SECOND

#: Open-loop ticks drawn per refill. numpy fills ``size=(K, 3)`` in
#: order, so the arrival sequence does not depend on K; 256 rows cost
#: one ~50 µs call and a 6 KB list per front-end.
ARRIVAL_BATCH_ROWS = 256


def kind_mix(lease_fraction: float, timeout_fraction: float) -> np.ndarray:
    """The (timestamp, lease, timeout) shares of the request mix.

    The timestamp share is clamped at zero: fractions that sum to 1
    leave a share of about -1e-16, which the multinomial and the Poisson
    draw both reject. A float64 ndarray skips numpy's per-draw list
    conversion and draws the same counts as the list would.
    """
    timestamp_fraction = max(1.0 - lease_fraction - timeout_fraction, 0.0)
    return np.array(
        [timestamp_fraction, lease_fraction, timeout_fraction], dtype=np.float64
    )


class OpenLoopArrivals:
    """Poisson arrivals at a fixed aggregate rate, response-independent.

    ``stream`` returns the generator the rows are drawn from; it is
    called on the first refill, so building a service spawns no stream
    for arrivals that never tick.
    """

    def __init__(
        self,
        stream: Callable[[], np.random.Generator],
        rate_rps: float,
        tick_ns: int,
        mix: np.ndarray,
    ) -> None:
        if rate_rps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_rps}")
        self._stream = stream
        self._rng: np.random.Generator | None = None
        #: Per-kind mean arrivals per tick.
        self._lams = rate_rps * tick_ns / SECOND * mix
        self._rows = iter(())

    def draw(self) -> tuple[int, int, int]:
        """(timestamp, lease, timeout) sessions firing in the next tick."""
        row = next(self._rows, None)
        if row is None:
            if self._rng is None:
                self._rng = self._stream()
            batch = self._rng.poisson(self._lams, size=(ARRIVAL_BATCH_ROWS, 3))
            # Three references to one iterator: zip hands out
            # consecutive triples, one tick's row each.
            counts = iter(batch.ravel().tolist())
            self._rows = zip(counts, counts, counts)
            row = next(self._rows)
        return row

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
        mix: np.ndarray,
    ) -> None:
        if sessions < 1:
            raise ConfigurationError(f"need at least one session, got {sessions}")
        if think_ms <= 0:
            raise ConfigurationError(f"think time must be positive, got {think_ms}")
        self._rng = rng
        self._mix = mix
        self._thinking = sessions
        #: P(a thinking session fires within one tick), exponential think.
        self._fire_probability = 1.0 - math.exp(-tick_ns / (think_ms * MILLISECOND))

    @property
    def thinking(self) -> int:
        """Sessions currently in their think phase."""
        return self._thinking

    def draw(self) -> tuple[int, int, int]:
        """(timestamp, lease, timeout) sessions firing in the next tick."""
        if self._thinking <= 0:
            return (0, 0, 0)
        count = int(self._rng.binomial(self._thinking, self._fire_probability))
        if count <= 0:
            return (0, 0, 0)
        self._thinking -= count
        n_ts, n_lease, n_to = self._rng.multinomial(count, self._mix).tolist()
        return (n_ts, n_lease, n_to)

    def absorb(self, count: int) -> None:
        self._thinking += count


class SessionWorkload:
    """One front-end's slice of the session population.

    :meth:`draw` returns the arrival model's per-kind counts for one
    tick and :meth:`absorb` returns completed sessions to it (a no-op
    for open loops). The front-end sees either model through it, and the
    benchmark's tracing times every tick's draw here (``service.draw``).
    """

    def __init__(self, arrivals: OpenLoopArrivals | ClosedLoopArrivals) -> None:
        self._arrivals = arrivals

    def draw(self) -> tuple[int, int, int]:
        """(timestamp, lease, timeout) request counts for the next tick."""
        return self._arrivals.draw()

    def absorb(self, count: int) -> None:
        if count > 0:
            self._arrivals.absorb(count)
