"""Property-based tests (hypothesis) on core invariants.

These cover the data structures and algorithms whose correctness the whole
analysis rests on: the AEAD layer, Marzullo's algorithm, the calibration
regression, the state timeline, the clock's monotonicity policy, and the
statistics helpers.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import empirical_cdf, linear_fit, remove_outliers, summarize
from repro.core.calibration import CalibrationSample, RegressionCalibrator
from repro.core.clock import TrustedClock
from repro.core.states import NodeState, StateTimeline
from repro.errors import CryptoError
from repro.hardened.chimers import Agreement, Interval, marzullo
from repro.hardware.tsc import TimestampCounter
from repro.net.crypto import SecureChannelKey, derive_epoch_secret
from repro.sim import Simulator
from repro.sim.units import SECOND

names = st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=12)


class TestCryptoProperties:
    @given(
        message=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=50),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_seal_open_round_trip(self, message):
        key = SecureChannelKey.between("a", "b")
        assert key.open(key.seal(message)) == message

    @given(
        message=st.integers(),
        parties=st.lists(names, min_size=3, max_size=3, unique=True),
        epochs=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        data=st.tuples(st.binary(max_size=4), st.binary(max_size=4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_tamper_detected(self, message, parties, epochs, data):
        """An envelope opens iff the pair, the epoch secret and the
        associated data all match; any mismatch raises."""
        a, b, c = parties
        sender = SecureChannelKey.between(a, b)
        sender.rekey(derive_epoch_secret(epochs[0], "cluster"), epochs[0])
        blob = sender.seal(message, associated_data=data[0])
        for pair in [(a, b), (b, a), (a, c), (b, c)]:
            receiver = SecureChannelKey.between(*pair)
            receiver.rekey(derive_epoch_secret(epochs[1], "cluster"), epochs[1])
            matches = set(pair) == {a, b} and epochs[0] == epochs[1] and data[0] == data[1]
            if matches:
                assert receiver.open(blob, associated_data=data[1]) == message
            else:
                with pytest.raises(CryptoError):
                    receiver.open(blob, associated_data=data[1])

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_ciphertext_size_independent_of_small_int_values(self, values):
        """Message size must not leak field magnitudes (constant wire size)."""
        key = SecureChannelKey.between("a", "b")
        sizes = {len(key.seal({"sleep_ns": value})) for value in values}
        assert len(sizes) == 1


def _coverage(intervals, point):
    return sum(1 for i in intervals if i.lo_ns <= point <= i.hi_ns)


def _reference(intervals):
    """O(n²) Marzullo: the earliest region with the most covering intervals.

    Coverage only changes at endpoints, so its maximum is reached at one;
    the earliest maximal point is an interval start, and the region runs
    until the first covering interval ends.
    """
    points = sorted({p for i in intervals for p in (i.lo_ns, i.hi_ns)})
    votes = max(_coverage(intervals, p) for p in points)
    lo = next(p for p in points if _coverage(intervals, p) == votes)
    hi = min(i.hi_ns for i in intervals if i.lo_ns <= lo <= i.hi_ns)
    return Agreement(lo_ns=lo, hi_ns=hi, votes=votes)


class TestMarzulloProperties:
    # A small grid makes shared, touching and degenerate endpoints common;
    # the wide range keeps magnitudes realistic for nanosecond clocks.
    offsets = st.integers(min_value=-40, max_value=40) | st.integers(
        min_value=-(10**15), max_value=10**15
    )
    widths = st.integers(min_value=0, max_value=20) | st.integers(min_value=0, max_value=10**12)
    intervals = st.lists(st.tuples(offsets, widths), min_size=1, max_size=12).map(
        lambda pairs: [Interval(lo, lo + w, f"s{n}") for n, (lo, w) in enumerate(pairs)]
    )

    @given(intervals)
    @settings(max_examples=120, deadline=None)
    def test_chimer_count_matches_interval_overlap(self, intervals):
        """Every interval overlapping the region contains it: any other
        overlap would push coverage above the maximum."""
        result = marzullo(intervals)
        overlapping = [i for i in intervals if result.overlaps(i)]
        assert result.lo_ns <= result.hi_ns
        assert len(overlapping) == result.votes >= 1
        assert all(i.lo_ns <= result.lo_ns and result.hi_ns <= i.hi_ns for i in overlapping)

    @given(intervals)
    @settings(max_examples=200, deadline=None)
    def test_best_interval_is_maximal(self, intervals):
        """Votes are the maximum coverage of any endpoint and the region is
        the earliest one with that coverage (brute-force reference)."""
        assert marzullo(intervals) == _reference(intervals)

    @given(intervals, st.integers(min_value=-(10**12), max_value=10**12))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, intervals, shift):
        result = marzullo(intervals)
        shifted = [Interval(i.lo_ns + shift, i.hi_ns + shift, i.source) for i in intervals]
        assert marzullo(shifted) == Agreement(
            lo_ns=result.lo_ns + shift, hi_ns=result.hi_ns + shift, votes=result.votes
        )

    @given(intervals.flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, pair):
        intervals, permuted = pair
        assert marzullo(permuted) == marzullo(intervals)

    @given(intervals, offsets, widths)
    @settings(max_examples=120, deadline=None)
    def test_overlaps_is_a_nonempty_intersection(self, intervals, lo, width):
        result = marzullo(intervals)
        probe = Interval(lo, lo + width)
        shared = max(probe.lo_ns, result.lo_ns) <= min(probe.hi_ns, result.hi_ns)
        assert result.overlaps(probe) == shared


class TestCalibrationProperties:
    @given(
        frequency_mhz=st.floats(min_value=100, max_value=10_000),
        rtt_us=st.integers(min_value=1, max_value=500_000),
        sleeps_ms=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=2, max_size=6, unique=True
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_constant_delay_never_biases_regression(self, frequency_mhz, rtt_us, sleeps_ms):
        """Slope exactness: a constant roundtrip cannot skew F_calib."""
        frequency_hz = frequency_mhz * 1e6
        samples = [
            CalibrationSample(
                sleep_ns=sleep * 1_000_000,
                tsc_increment=max(
                    int(frequency_hz * (sleep * 1_000_000 + rtt_us * 1_000) / SECOND), 1
                ),
            )
            for sleep in sleeps_ms
        ]
        if len({s.sleep_ns for s in samples}) < 2:
            return
        estimate = RegressionCalibrator().estimate(samples)
        assert estimate == pytest.approx(frequency_hz, rel=1e-3)

    @given(
        delay_ms=st.integers(min_value=1, max_value=1000),
        span_ms=st.integers(min_value=100, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fplus_skew_formula(self, delay_ms, span_ms):
        """Delaying the high-sleep group tilts the slope by delay/span."""
        frequency_hz = 2.9e9
        low, high = 0, span_ms * 1_000_000
        samples = [
            CalibrationSample(1 if low == 0 else low, max(int(frequency_hz * low / SECOND), 1)),
            CalibrationSample(
                high, int(frequency_hz * (high + delay_ms * 1_000_000) / SECOND)
            ),
        ]
        estimate = RegressionCalibrator().estimate(samples)
        expected = frequency_hz * (1 + delay_ms * 1_000_000 / high)
        assert estimate == pytest.approx(expected, rel=1e-3)


class TestTimelineProperties:
    states = st.sampled_from(list(NodeState))

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=1000), states),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_state_durations_partition_total_time(self, steps):
        timeline = StateTimeline(0, NodeState.FULL_CALIB)
        now = 0
        for delta, state in steps:
            now += delta
            timeline.record(now, state)
        horizon = now + 10
        total = sum(timeline.time_in_state(state, horizon) for state in NodeState)
        assert total == horizon

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=1000), states),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_availability_bounded(self, steps):
        timeline = StateTimeline(0, NodeState.OK)
        now = 0
        for delta, state in steps:
            now += delta
            timeline.record(now, state)
        assert 0.0 <= timeline.availability(now + 1) <= 1.0


class TestClockProperties:
    @given(
        references=st.lists(
            st.integers(min_value=0, max_value=10**12), min_size=1, max_size=20
        ),
        advances=st.lists(
            st.integers(min_value=0, max_value=10**9), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_served_timestamps_strictly_monotonic_under_any_policy_mix(
        self, references, advances
    ):
        """No sequence of taints, peer adoptions, authority rewrites, and
        hardened backward slews may ever produce a non-increasing served
        timestamp."""
        sim = Simulator(seed=1)
        tsc = TimestampCounter(sim, frequency_hz=1_000_000_000)
        clock = TrustedClock(sim, tsc)
        clock.set_frequency(1_000_000_000.0)
        clock.untaint_with_reference(0)
        served = [clock.serve_timestamp()]
        operations = zip(references, advances * (len(references) // len(advances) + 1))
        for reference, advance in operations:
            sim.run(until=sim.now + advance)
            if reference % 3 == 0:
                clock.taint()
                clock.untaint_with_reference(reference)
            elif reference % 3 == 1:
                clock.set_reference(reference)
            served.append(clock.serve_timestamp())
        assert all(b > a for a, b in zip(served, served[1:]))


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_summary_bounds(self, values):
        import math

        summary = summarize(values)
        assert summary.minimum <= summary.median <= summary.maximum
        # The mean may land one ULP outside [min, max] through float
        # accumulation; allow that rounding slack.
        slack = math.ulp(max(abs(summary.minimum), abs(summary.maximum), 1.0)) * 4
        assert summary.minimum - slack <= summary.mean <= summary.maximum + slack

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone_and_normalized(self, values):
        ordered, fractions = empirical_cdf(values)
        assert ordered == sorted(ordered)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_outlier_removal_never_grows_sample(self, values):
        cleaned = remove_outliers(values)
        assert len(cleaned) <= len(values)
        assert set(cleaned) <= set(values) or all(v in values for v in cleaned)

    @given(
        slope=st.floats(min_value=-100, max_value=100),
        intercept=st.floats(min_value=-1e6, max_value=1e6),
        xs=st.lists(
            st.integers(min_value=-10_000, max_value=10_000),
            min_size=2,
            max_size=50,
            unique=True,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_fit_recovers_exact_lines(self, slope, intercept, xs):
        ys = [slope * x + intercept for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(slope, rel=1e-6, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, rel=1e-6, abs=1e-3)


class TestRegistryProperties:
    reports = st.lists(
        st.tuples(
            st.sampled_from(["node-1", "node-2", "node-3", "node-4"]),  # reporter
            st.lists(
                st.sampled_from(["node-1", "node-2", "node-3", "node-4"]),
                max_size=4,
                unique=True,
            ),  # observed
            st.lists(
                st.sampled_from(["node-1", "node-2", "node-3", "node-4"]),
                max_size=4,
                unique=True,
            ),  # chimers
        ),
        min_size=1,
        max_size=30,
    )

    @given(reports)
    @settings(max_examples=60, deadline=None)
    def test_suspect_scores_bounded(self, raw_reports):
        from repro.hardened.registry import ChimerRegistry, ChimerReport

        sim = Simulator(seed=3)
        registry = ChimerRegistry(sim)
        for reporter, observed, chimers in raw_reports:
            registry.publish(
                ChimerReport(
                    time_ns=0,
                    reporter=reporter,
                    observed=tuple(observed),
                    chimers=tuple(chimers),
                    last_ta_timestamp_ns=None,
                )
            )
        scores = registry.suspect_scores()
        for score in scores.values():
            assert 0.0 <= score <= 1.0
        # Suspects are exactly the over-threshold names.
        suspects = registry.suspects(threshold=0.5)
        assert suspects == sorted(
            name for name, score in scores.items() if score > 0.5
        )


class TestNetworkConservation:
    @given(
        sends=st.integers(min_value=1, max_value=60),
        drop=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_datagram_delivered_or_dropped(self, sends, drop):
        from repro.net import Address, ConstantDelay, Network

        sim = Simulator(seed=4)
        net = Network(sim, default_delay=ConstantDelay(10), drop_probability=drop)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        for i in range(sends):
            a.send(b.address, bytes([i % 256]))
        sim.run()
        assert b.received_count + len(net.dropped) == sends
        assert net.sent_count == sends
        assert b.received_count + net.dropped_count == net.sent_count


class TestNtpExchangeProperties:
    @given(
        t1=st.integers(min_value=0, max_value=10**12),
        outbound=st.integers(min_value=0, max_value=10**9),
        processing=st.integers(min_value=0, max_value=10**9),
        inbound=st.integers(min_value=0, max_value=10**9),
        clock_offset=st.integers(min_value=-(10**12), max_value=10**12),
    )
    @settings(max_examples=80, deadline=None)
    def test_offset_error_bounded_by_half_delay(
        self, t1, outbound, processing, inbound, clock_offset
    ):
        """θ's error from the true offset is at most δ/2 — NTP's classic
        bound, and the reason the hardened delay filter works."""
        from repro.authority.ntp import SyncExchange

        # Server clock = client clock + clock_offset.
        t2 = t1 + outbound + clock_offset
        t3 = t2 + processing
        t4 = t1 + outbound + processing + inbound
        exchange = SyncExchange(t1=t1, t2=t2, t3=t3, t4=t4)
        assert exchange.delay_ns == outbound + inbound
        error = abs(exchange.offset_ns - clock_offset)
        assert error <= exchange.delay_ns / 2 + 1  # +1 for integer halving
