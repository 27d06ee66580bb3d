"""Marzullo's sweep, its majority rule, and both callers' readings of it.

The hardened untaint reads an :class:`Agreement` as a true-chimer set and
gates it on a majority of the cluster; the service's quorum client reads
it as votes plus the sources it out-voted. Both go through the one sweep
in :mod:`repro.hardened.chimers`.
"""

import pytest

from repro.errors import ConfigurationError
from repro.hardened.chimers import Agreement, Interval, majority, majority_chimers, marzullo
from repro.service.marzullo import intersect


def reading(source, timestamp, error=10):
    """A clock reading ``timestamp ± error`` as the interval it stands for."""
    return Interval(timestamp - error, timestamp + error, source)


def chimers(intervals, agreement):
    """The hardened node's true-chimers: overlapping sources, in input order."""
    return tuple(i.source for i in intervals if agreement.overlaps(i))


def outvoted(intervals, agreement):
    """The quorum client's out-voted sources: intervals disjoint from the region."""
    return [i for i in intervals if not agreement.overlaps(i)]


class TestClockReading:
    def test_interval_bounds(self):
        r = reading("a", 100, error=10)
        assert (r.lo_ns, r.hi_ns, r.source) == (90, 110, "a")

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigurationError, match="inverted"):
            reading("a", 100, error=-1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ConfigurationError, match="inverted"):
            Interval(10, 5, "node-1")


class TestMajority:
    def test_thresholds(self):
        assert [majority(n) for n in range(1, 6)] == [1, 2, 2, 3, 3]

    def test_rejects_empty_quorum(self):
        with pytest.raises(ConfigurationError, match="quorum"):
            majority(0)


class TestMarzullo:
    def test_single_reading(self):
        readings = [reading("a", 100, 10)]
        result = marzullo(readings)
        assert result == Agreement(lo_ns=90, hi_ns=110, votes=1)
        assert result.midpoint_ns == 100
        assert chimers(readings, result) == ("a",)

    def test_all_overlapping(self):
        readings = [reading("a", 100, 10), reading("b", 105, 10), reading("c", 95, 10)]
        result = marzullo(readings)
        assert result.votes == 3
        assert chimers(readings, result) == ("a", "b", "c")
        # Intersection of [90,110], [95,115], [85,105] = [95,105].
        assert (result.lo_ns, result.hi_ns) == (95, 105)
        assert result.midpoint_ns == 100

    def test_outlier_excluded(self):
        """An F−-infected clock racing ahead is not a true-chimer."""
        readings = [
            reading("honest-1", 100, 10),
            reading("honest-2", 103, 10),
            reading("infected", 10_000, 10),
        ]
        result = marzullo(readings)
        assert result.votes == 2
        assert chimers(readings, result) == ("honest-1", "honest-2")

    def test_two_disjoint_pairs_earliest_wins(self):
        readings = [
            reading("c", 500, 5),
            reading("a", 100, 5),
            reading("d", 502, 5),
            reading("b", 102, 5),
        ]
        result = marzullo(readings)
        assert result.votes == 2
        assert (result.lo_ns, result.hi_ns) == (97, 105)
        assert chimers(readings, result) == ("a", "b")

    def test_touching_intervals_count_as_overlapping(self):
        # [90,110] and [110,130] share the single instant 110: NTP
        # semantics count that as agreement, not disjointness.
        result = marzullo([reading("a", 100, 10), reading("b", 120, 10)])
        assert result == Agreement(lo_ns=110, hi_ns=110, votes=2)

    def test_disjoint_intervals_no_overlap(self):
        # The best region keeps a single vote; the majority rule rejects it.
        result = marzullo([Interval(0, 10), Interval(20, 30), Interval(40, 50)])
        assert result == Agreement(lo_ns=0, hi_ns=10, votes=1)
        assert result.votes < majority(3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="zero intervals"):
            marzullo([])

    def test_contains(self):
        result = marzullo([reading("a", 100, 10), reading("b", 105, 10)])
        assert result.overlaps(reading("x", 100, 1))
        assert not result.overlaps(reading("y", 500, 1))

    def test_nested_intervals(self):
        result = marzullo([reading("wide", 100, 100), reading("narrow", 100, 1)])
        assert result == Agreement(lo_ns=99, hi_ns=101, votes=2)

    def test_order_independence(self):
        boxes = [Interval(0, 100), Interval(50, 150), Interval(80, 120)]
        assert marzullo(boxes) == marzullo(list(reversed(boxes))) == Agreement(80, 100, 3)


class TestIntersect:
    def test_is_the_marzullo_sweep_at_its_own_call_site(self):
        boxes = [Interval(0, 100), Interval(50, 150), Interval(200, 300)]
        assert intersect(boxes) == marzullo(boxes)
        assert intersect is not marzullo

    def test_empty_input_raises(self):
        with pytest.raises(ConfigurationError, match="zero intervals"):
            intersect([])

    def test_single_source_is_its_own_consensus(self):
        estimate = intersect([Interval(100, 200, "only")])
        assert estimate == Agreement(lo_ns=100, hi_ns=200, votes=1)
        assert estimate.midpoint_ns == 150
        assert estimate.hi_ns - estimate.lo_ns == 100

    def test_full_three_way_overlap(self):
        estimate = intersect([Interval(0, 100), Interval(50, 150), Interval(80, 120)])
        assert estimate.votes == 3
        assert (estimate.lo_ns, estimate.hi_ns) == (80, 100)

    def test_exactly_touching_intervals_agree_on_the_shared_point(self):
        # [0, 50] and [50, 100] share the single instant 50: NTP semantics
        # count that as agreement, not disjointness.
        estimate = intersect([Interval(0, 50), Interval(50, 100)])
        assert estimate.votes == 2
        assert (estimate.lo_ns, estimate.hi_ns) == (50, 50)

    def test_tied_majorities_resolve_to_the_earliest_region(self):
        # Two separate 2-vote camps; determinism demands the earlier wins.
        estimate = intersect(
            [Interval(0, 10), Interval(5, 15), Interval(100, 110), Interval(105, 115)]
        )
        assert estimate.votes == 2
        assert (estimate.lo_ns, estimate.hi_ns) == (5, 10)

    def test_order_independence(self):
        boxes = [Interval(0, 100), Interval(50, 150), Interval(80, 120)]
        assert intersect(boxes) == intersect(list(reversed(boxes)))

    def test_poisoned_fminus_source_out_of_five_is_outvoted(self):
        # Four honest sources within a microsecond of true time 1_000_000;
        # the F−-dragged node reports ~113 ms in the future (the paper's
        # +113 ms/s drift after one second). Marzullo must settle on the
        # honest overlap and discard the poisoned claim.
        boxes = [
            Interval(999_800, 1_000_300, "node-1"),
            Interval(999_900, 1_000_400, "node-2"),
            Interval(113_999_800, 114_000_200, "node-3"),
            Interval(999_700, 1_000_200, "node-4"),
            Interval(999_850, 1_000_350, "node-5"),
        ]
        estimate = intersect(boxes)
        assert estimate.votes == 4 >= majority(5)
        assert 999_900 <= estimate.midpoint_ns <= 1_000_200
        assert [box.source for box in outvoted(boxes, estimate)] == ["node-3"]


class TestOutvoted:
    def test_touching_source_is_not_outvoted(self):
        estimate = Agreement(lo_ns=50, hi_ns=60, votes=2)
        assert outvoted([Interval(40, 50), Interval(61, 70)], estimate) == [Interval(61, 70)]

    def test_all_agreeing_sources_yield_empty_list(self):
        boxes = [Interval(0, 100), Interval(50, 150)]
        assert outvoted(boxes, intersect(boxes)) == []


class TestMajorityChimers:
    def test_majority_found(self):
        readings = [reading("a", 100), reading("b", 102), reading("c", 9000)]
        result = majority_chimers(readings, total_clocks=3)
        assert result is not None
        assert chimers(readings, result) == ("a", "b")

    def test_no_majority_returns_none(self):
        """Two clocks far apart out of three: 1 is not a majority of 3."""
        readings = [reading("a", 100), reading("b", 9000)]
        assert majority_chimers(readings, total_clocks=3) is None

    def test_exact_half_is_not_majority(self):
        readings = [reading("a", 100), reading("b", 102)]
        assert majority_chimers(readings, total_clocks=4) is None

    def test_empty_readings(self):
        assert majority_chimers([], total_clocks=3) is None

    def test_invalid_total_rejected(self):
        with pytest.raises(ConfigurationError):
            majority_chimers([reading("a", 1)], total_clocks=0)
        with pytest.raises(ConfigurationError):
            majority_chimers([], total_clocks=0)

    def test_counts_against_cluster_size_not_respondents(self):
        """Two agreeing readings out of a 5-clock cluster: no majority."""
        readings = [reading("a", 100), reading("b", 101)]
        assert majority_chimers(readings, total_clocks=5) is None
        assert majority_chimers(readings, total_clocks=3) is not None
