"""Arrival models and the aggregate session workload."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.service.workload import (
    ARRIVAL_BATCH_ROWS,
    ClosedLoopArrivals,
    OpenLoopArrivals,
    SessionWorkload,
    kind_mix,
)
from repro.sim.units import MILLISECOND

MIX = kind_mix(0.1, 0.1)
#: Lease and timeout fractions whose float sum is 1 (or just past it).
SUMMING_TO_ONE = [(0.32, 0.68), (0.07, 0.93), (0.0, 1.0), (1.0, 0.0)]


def rng(seed=7):
    return np.random.default_rng(seed)


def stream(seed=7):
    """An arrival stream factory over a fresh generator."""
    return lambda: rng(seed)


def open_loop(seed=7, rate_rps=5000.0, tick_ns=10 * MILLISECOND, mix=MIX):
    return OpenLoopArrivals(stream(seed), rate_rps=rate_rps, tick_ns=tick_ns, mix=mix)


class ReferenceOpenLoop:
    """The per-tick draw the batched rows replace: one Poisson count for
    the tick, split across kinds by one multinomial."""

    def __init__(self, rng, lam, mix):
        self._rng = rng
        self._lam = lam
        self._mix = mix

    def draw(self):
        count = int(self._rng.poisson(self._lam))
        if count <= 0:
            return (0, 0, 0)
        n_ts, n_lease, n_to = self._rng.multinomial(count, self._mix).tolist()
        return (n_ts, n_lease, n_to)


def moments(rows):
    """Per-kind means, per-kind variances and the kind covariance matrix."""
    counts = np.asarray(rows, dtype=np.float64)
    return counts.mean(axis=0), counts.var(axis=0, ddof=1), np.cov(counts, rowvar=False)


class TestOpenLoop:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="rate"):
            OpenLoopArrivals(stream(), rate_rps=0, tick_ns=MILLISECOND, mix=MIX)

    def test_mean_arrivals_match_the_configured_rate(self):
        arrivals = open_loop(rate_rps=5000.0, tick_ns=10 * MILLISECOND)
        rows = [arrivals.draw() for _ in range(2000)]
        # lam = 50/tick, split 40/5/5; the sample means of 2000 rows are tight.
        assert np.mean([sum(row) for row in rows]) == pytest.approx(50.0, rel=0.05)
        means = np.mean(rows, axis=0)
        assert means == pytest.approx([40.0, 5.0, 5.0], rel=0.05)

    def test_absorb_is_a_no_op(self):
        arrivals = open_loop(rate_rps=1.0, tick_ns=MILLISECOND)
        arrivals.absorb(10**9)  # must not throw or change behaviour

    def test_same_seed_same_draws(self):
        a = open_loop(seed=3, rate_rps=100.0)
        b = open_loop(seed=3, rate_rps=100.0)
        # Past one batch, so the refill repeats too.
        count = ARRIVAL_BATCH_ROWS + 50
        assert [a.draw() for _ in range(count)] == [b.draw() for _ in range(count)]

    def test_rows_do_not_depend_on_the_batch_size(self):
        arrivals = open_loop(seed=4, rate_rps=2000.0)
        count = 3 * ARRIVAL_BATCH_ROWS + 7
        lams = 2000.0 * 10 * MILLISECOND / 1e9 * MIX
        expected = rng(4).poisson(lams, size=(count, 3)).tolist()
        assert [list(arrivals.draw()) for _ in range(count)] == expected

    def test_stream_is_created_on_the_first_draw(self):
        calls = []

        def counted():
            calls.append(1)
            return rng()

        arrivals = OpenLoopArrivals(counted, rate_rps=100.0, tick_ns=MILLISECOND, mix=MIX)
        assert calls == []
        for _ in range(3 * ARRIVAL_BATCH_ROWS):
            arrivals.draw()
        assert calls == [1]


class TestOpenLoopMatchesTheMultinomialModel:
    """The Poisson rows have the law of the per-tick Poisson count split
    by a multinomial (Poisson thinning): same per-kind means and
    variances, and uncorrelated kinds."""

    TICKS = 100_000

    @pytest.mark.parametrize(
        "lam, lease, timeout",
        [
            (50.0, 0.1, 0.1),  # the default mix at a busy front-end
            (0.3, 0.2, 0.1),  # most ticks see no arrival at all
            (20.0, 0.32, 0.68),  # clamped-zero timestamp share
        ],
    )
    def test_moments_match_the_reference_model(self, lam, lease, timeout):
        mix = kind_mix(lease, timeout)
        arrivals = OpenLoopArrivals(
            stream(21), rate_rps=lam * 1000.0, tick_ns=MILLISECOND, mix=mix
        )
        reference = ReferenceOpenLoop(rng(22), lam, mix)
        rows = [arrivals.draw() for _ in range(self.TICKS)]
        reference_rows = [reference.draw() for _ in range(self.TICKS)]

        means, variances, cov = moments(rows)
        ref_means, ref_variances, ref_cov = moments(reference_rows)
        for kind, share in enumerate(mix):
            mu = lam * share
            if mu == 0:
                assert means[kind] == ref_means[kind] == 0
                assert variances[kind] == ref_variances[kind] == 0
                continue
            # Five standard errors of the difference of two sample means
            # (Poisson: variance mu), and of two sample variances
            # (Poisson: Var(s^2) ~ (mu + 2 mu^2) / n).
            assert abs(means[kind] - ref_means[kind]) < 5 * np.sqrt(2 * mu / self.TICKS)
            bound = 5 * np.sqrt(2 * (mu + 2 * mu**2) / self.TICKS)
            assert abs(variances[kind] - ref_variances[kind]) < bound
            assert abs(means[kind] - mu) < 5 * np.sqrt(mu / self.TICKS)
            assert abs(variances[kind] - mu) < 5 * np.sqrt((mu + 2 * mu**2) / self.TICKS)
        for i in range(3):
            for j in range(i + 1, 3):
                # Independent kinds: covariance zero within five standard errors.
                bound = 5 * np.sqrt(lam * mix[i] * lam * mix[j] / self.TICKS)
                assert abs(cov[i, j]) <= bound
                assert abs(ref_cov[i, j]) <= bound


class TestClosedLoop:
    def test_population_is_conserved(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=1000, think_ms=100.0, tick_ns=10 * MILLISECOND, mix=MIX
        )
        in_flight = 0
        for _ in range(100):
            fired = sum(arrivals.draw())
            in_flight += fired
            assert arrivals.thinking + in_flight == 1000
            # Complete about half the in-flight requests each tick.
            done = in_flight // 2
            arrivals.absorb(done)
            in_flight -= done

    def test_draws_stop_when_nobody_is_thinking(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=5, think_ms=1.0, tick_ns=100 * MILLISECOND, mix=MIX
        )
        total = sum(sum(arrivals.draw()) for _ in range(50))
        assert total == 5  # every session fired once, none returned
        assert arrivals.thinking == 0
        assert arrivals.draw() == (0, 0, 0)

    def test_absorb_returns_sessions_to_thinking(self):
        arrivals = ClosedLoopArrivals(
            rng(), sessions=5, think_ms=1.0, tick_ns=100 * MILLISECOND, mix=MIX
        )
        while arrivals.thinking:
            arrivals.draw()
        arrivals.absorb(3)
        assert arrivals.thinking == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="session"):
            ClosedLoopArrivals(rng(), sessions=0, think_ms=1.0, tick_ns=1, mix=MIX)
        with pytest.raises(ConfigurationError, match="think"):
            ClosedLoopArrivals(rng(), sessions=1, think_ms=0.0, tick_ns=1, mix=MIX)


class TestSessionWorkload:
    def test_kind_split_preserves_the_total(self):
        arrivals = ClosedLoopArrivals(
            rng(1), sessions=10_000, think_ms=100.0, tick_ns=10 * MILLISECOND, mix=MIX
        )
        workload = SessionWorkload(arrivals)
        fired = 0
        for _ in range(200):
            n_ts, n_lease, n_to = workload.draw()
            assert n_ts >= 0 and n_lease >= 0 and n_to >= 0
            fired += n_ts + n_lease + n_to
        assert fired == 10_000 - arrivals.thinking

    def test_kind_mix_matches_fractions_in_aggregate(self):
        workload = SessionWorkload(open_loop(seed=3, rate_rps=50_000.0, mix=kind_mix(0.2, 0.1)))
        totals = np.zeros(3)
        for _ in range(500):
            totals += workload.draw()
        fractions = totals / totals.sum()
        assert fractions[0] == pytest.approx(0.7, abs=0.02)
        assert fractions[1] == pytest.approx(0.2, abs=0.02)
        assert fractions[2] == pytest.approx(0.1, abs=0.02)

    def test_zero_arrivals_draw_zero_kinds(self):
        workload = SessionWorkload(
            ClosedLoopArrivals(rng(1), sessions=1, think_ms=1e9, tick_ns=1, mix=kind_mix(0.5, 0.5))
        )
        assert workload.draw() == (0, 0, 0)

    @pytest.mark.parametrize("lease, timeout", SUMMING_TO_ONE)
    def test_fractions_summing_to_one_leave_no_timestamp_share(self, lease, timeout):
        # 1.0 - 0.32 - 0.68 is -1.1e-16 in floating point; the share is
        # clamped at zero instead of failing the Poisson draw.
        workload = SessionWorkload(open_loop(seed=5, mix=kind_mix(lease, timeout)))
        draws = [workload.draw() for _ in range(50)]
        assert all(n_ts == 0 for n_ts, _, _ in draws)
        assert sum(map(sum, draws)) > 0

    @pytest.mark.parametrize("lease, timeout", SUMMING_TO_ONE)
    def test_closed_loop_fractions_summing_to_one_leave_no_timestamp_share(
        self, lease, timeout
    ):
        # The same clamp keeps the closed loop's multinomial split valid.
        workload = SessionWorkload(
            ClosedLoopArrivals(
                rng(5),
                sessions=10_000,
                think_ms=100.0,
                tick_ns=10 * MILLISECOND,
                mix=kind_mix(lease, timeout),
            )
        )
        draws = [workload.draw() for _ in range(50)]
        assert all(n_ts == 0 for n_ts, _, _ in draws)
        assert sum(map(sum, draws)) > 0

    def test_kind_split_draws_what_a_list_mix_draws(self):
        # The closed loop's ndarray mix draws the counts the list mix drew.
        workload = SessionWorkload(
            ClosedLoopArrivals(
                rng(6), sessions=5000, think_ms=200.0, tick_ns=10 * MILLISECOND, mix=MIX
            )
        )
        reference = rng(6)
        thinking = 5000
        probability = 1.0 - math.exp(-10 * MILLISECOND / (200.0 * MILLISECOND))
        for _ in range(700):
            count = int(reference.binomial(thinking, probability))
            thinking -= count
            expected = (
                (0, 0, 0)
                if count == 0
                else tuple(reference.multinomial(count, [0.8, 0.1, 0.1]).tolist())
            )
            assert workload.draw() == expected
            workload.absorb(count)
            thinking += count


def _recorded_run(staleness_ms):
    """Per-front-end arrival rows and the quorum sync count of one run."""
    spec = ExperimentSpec.from_dict(
        {
            "name": "arrival-rows",
            "seed": 5,
            "duration_s": 13.0,
            "nodes": 3,
            "service": {"sessions": 20_000, "quorum": 3, "anchor_staleness_ms": staleness_ms},
        }
    )
    experiment = spec.build()
    rows = {}
    for frontend in experiment.service.frontends:
        assert f"service/{frontend.name}/arrivals" not in experiment.sim.rng
        recorded = rows[frontend.name] = []
        draw = frontend.workload.draw

        def recording(draw=draw, recorded=recorded):
            row = draw()
            recorded.append(row)
            return row

        frontend.workload.draw = recording
    experiment.run(spec.duration_ns)
    syncs = sum(f.quorum_client.stats.syncs for f in experiment.service.frontends)
    return rows, syncs


def test_arrival_rows_do_not_depend_on_quorum_syncs():
    """Arrivals draw on their own stream, created at the first refill: a
    client that syncs far more often draws the same rows (quorum RTTs
    stay on ``service/<node>``)."""
    rows, syncs = _recorded_run(1000.0)
    busier_rows, busier_syncs = _recorded_run(20.0)
    assert busier_syncs > 10 * syncs
    assert all(len(node_rows) > ARRIVAL_BATCH_ROWS for node_rows in rows.values())
    assert rows == busier_rows
