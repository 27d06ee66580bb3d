"""Arrival models and the aggregate session workload."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.workload import (
    ClosedLoopArrivals,
    OpenLoopArrivals,
    SessionWorkload,
)
from repro.sim.units import MILLISECOND


def rng(seed=7):
    return np.random.default_rng(seed)


class TestOpenLoop:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="rate"):
            OpenLoopArrivals(rng(), rate_rps=0, tick_ns=MILLISECOND)

    def test_mean_arrivals_match_the_configured_rate(self):
        arrivals = OpenLoopArrivals(rng(), rate_rps=5000.0, tick_ns=10 * MILLISECOND)
        draws = [arrivals.draw() for _ in range(2000)]
        # lam = 50/tick; the sample mean of 2000 Poisson draws is tight.
        assert np.mean(draws) == pytest.approx(50.0, rel=0.05)

    def test_absorb_is_a_no_op(self):
        arrivals = OpenLoopArrivals(rng(), rate_rps=1.0, tick_ns=MILLISECOND)
        arrivals.absorb(10**9)  # must not throw or change behaviour

    def test_same_seed_same_draws(self):
        a = OpenLoopArrivals(rng(3), rate_rps=100.0, tick_ns=10 * MILLISECOND)
        b = OpenLoopArrivals(rng(3), rate_rps=100.0, tick_ns=10 * MILLISECOND)
        assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


class TestClosedLoop:
    def test_population_is_conserved(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=1000, think_ms=100.0, tick_ns=10 * MILLISECOND
        )
        in_flight = 0
        for _ in range(100):
            fired = arrivals.draw()
            in_flight += fired
            assert arrivals.thinking + in_flight == 1000
            # Complete about half the in-flight requests each tick.
            done = in_flight // 2
            arrivals.absorb(done)
            in_flight -= done

    def test_draws_stop_when_nobody_is_thinking(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=5, think_ms=1.0, tick_ns=100 * MILLISECOND
        )
        total = sum(arrivals.draw() for _ in range(50))
        assert total == 5  # every session fired once, none returned
        assert arrivals.thinking == 0
        assert arrivals.draw() == 0

    def test_absorb_returns_sessions_to_thinking(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=5, think_ms=1.0, tick_ns=100 * MILLISECOND
        )
        while arrivals.thinking:
            arrivals.draw()
        arrivals.absorb(3)
        assert arrivals.thinking == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="session"):
            ClosedLoopArrivals(rng(), sessions=0, think_ms=1.0, tick_ns=1)
        with pytest.raises(ConfigurationError, match="think"):
            ClosedLoopArrivals(rng(), sessions=1, think_ms=0.0, tick_ns=1)


class TestSessionWorkload:
    def test_kind_split_preserves_the_total(self):
        workload = SessionWorkload(
            rng(),
            OpenLoopArrivals(rng(1), rate_rps=5000.0, tick_ns=10 * MILLISECOND),
            lease_fraction=0.2,
            timeout_fraction=0.1,
        )
        for _ in range(200):
            n_ts, n_lease, n_to = workload.draw()
            assert n_ts >= 0 and n_lease >= 0 and n_to >= 0

    def test_kind_mix_matches_fractions_in_aggregate(self):
        workload = SessionWorkload(
            rng(2),
            OpenLoopArrivals(rng(3), rate_rps=50_000.0, tick_ns=10 * MILLISECOND),
            lease_fraction=0.2,
            timeout_fraction=0.1,
        )
        totals = np.zeros(3)
        for _ in range(500):
            totals += workload.draw()
        fractions = totals / totals.sum()
        assert fractions[0] == pytest.approx(0.7, abs=0.02)
        assert fractions[1] == pytest.approx(0.2, abs=0.02)
        assert fractions[2] == pytest.approx(0.1, abs=0.02)

    def test_zero_arrivals_draw_zero_kinds(self):
        workload = SessionWorkload(
            rng(),
            ClosedLoopArrivals(rng(1), sessions=1, think_ms=1e9, tick_ns=1),
            lease_fraction=0.5,
            timeout_fraction=0.5,
        )
        assert workload.draw() == (0, 0, 0)

    @pytest.mark.parametrize("lease, timeout", [(0.32, 0.68), (0.07, 0.93), (0.0, 1.0), (1.0, 0.0)])
    def test_fractions_summing_to_one_leave_no_timestamp_share(self, lease, timeout):
        # 1.0 - 0.32 - 0.68 is -1.1e-16 in floating point; the share is
        # clamped at zero instead of failing the multinomial draw.
        workload = SessionWorkload(
            rng(4),
            OpenLoopArrivals(rng(5), rate_rps=5000.0, tick_ns=10 * MILLISECOND),
            lease_fraction=lease,
            timeout_fraction=timeout,
        )
        draws = [workload.draw() for _ in range(50)]
        assert all(n_ts == 0 for n_ts, _, _ in draws)
        assert sum(map(sum, draws)) > 0

    def test_kind_split_draws_what_a_list_mix_draws(self):
        counts = list(range(700))

        class FixedArrivals:
            def draw(self):
                return counts.pop(0)

        workload = SessionWorkload(
            rng(6), FixedArrivals(), lease_fraction=0.1, timeout_fraction=0.1
        )
        reference = rng(6)
        for count in range(700):
            expected = (
                (0, 0, 0)
                if count == 0
                else tuple(reference.multinomial(count, [0.8, 0.1, 0.1]).tolist())
            )
            assert workload.draw() == expected
