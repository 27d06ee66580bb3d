"""Front-end admission, shedding, expiry, and batch accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.service.frontend import FrontEnd, _split_proportional
from repro.sim.units import MILLISECOND


class ScriptedWorkload:
    """Replays a fixed arrival script and records absorbed completions."""

    def __init__(self, script):
        self.script = list(script)
        self.absorbed = 0

    def draw(self):
        return self.script.pop(0) if self.script else (0, 0, 0)

    def absorb(self, count):
        self.absorbed += count


class ScriptedQuorum:
    """Returns a fixed estimate (or None to refuse) off a healthy anchor."""

    def __init__(self, estimate):
        self._estimate = estimate
        self.anchor_degraded = False

    def estimate(self):
        return self._estimate


def frontend(
    script,
    estimate=1_000_000,
    queue_capacity=100,
    service_per_tick=1000.0,
    deadline_ticks=2,
    lease_guard_ns=10 * MILLISECOND,
):
    return FrontEnd(
        name="fe",
        workload=ScriptedWorkload(script),
        quorum_client=ScriptedQuorum(estimate),
        queue_capacity=queue_capacity,
        service_per_tick=service_per_tick,
        deadline_ticks=deadline_ticks,
        lease_guard_ns=lease_guard_ns,
        tick_ns=10 * MILLISECOND,
    )


class TestSplitProportional:
    def test_take_everything(self):
        assert _split_proportional((3, 2, 1), 6) == ((3, 2, 1), (0, 0, 0))
        assert _split_proportional((3, 2, 1), 99) == ((3, 2, 1), (0, 0, 0))

    def test_take_nothing(self):
        assert _split_proportional((3, 2, 1), 0) == ((0, 0, 0), (3, 2, 1))

    def test_partial_split_is_exact(self):
        taken, rest = _split_proportional((70, 20, 10), 55)
        assert sum(taken) == 55
        assert tuple(t + r for t, r in zip(taken, rest)) == (70, 20, 10)

    def test_split_is_proportional(self):
        taken, _ = _split_proportional((700, 200, 100), 100)
        assert taken == (70, 20, 10)


class TestAdmission:
    def test_arrivals_within_capacity_are_queued(self):
        fe = frontend([(5, 3, 2)], service_per_tick=0.001)
        fe.tick(1, 0)
        assert fe.queue_depth == 10
        assert sum(fe.metrics.shed) == 0

    def test_overflow_is_shed_proportionally(self):
        fe = frontend([(70, 20, 10)], queue_capacity=50, service_per_tick=0.001)
        fe.tick(1, 0)
        assert fe.queue_depth == 50
        assert sum(fe.metrics.shed) == 50
        # Shed sessions complete immediately (closed-loop feedback).
        assert fe.workload.absorbed == 50

    def test_shed_preserves_the_kind_mix_roughly(self):
        fe = frontend([(700, 200, 100)], queue_capacity=500, service_per_tick=0.001)
        fe.tick(1, 0)
        assert fe.metrics.shed == [350, 100, 50]


class TestExpiry:
    def test_batches_older_than_the_deadline_are_dropped(self):
        fe = frontend(
            [(10, 0, 0)], deadline_ticks=2, service_per_tick=0.001
        )
        fe.tick(1, 0)
        fe.tick(2, 0)
        fe.tick(3, 0)
        assert sum(fe.metrics.expired) == 0
        fe.tick(4, 0)  # age 3 > deadline 2: the batch times out
        assert sum(fe.metrics.expired) == 10
        assert fe.queue_depth == 0
        assert fe.workload.absorbed == 10


class TestDraining:
    def test_served_batch_is_stamped_with_the_estimate_error(self):
        fe = frontend([(10, 0, 0)], estimate=1_500_000)
        fe.tick(1, 1_000_000)
        assert fe.metrics.served == [10, 0, 0]
        assert fe.metrics.error_histogram == {500_000: 10}
        assert fe.metrics.max_error_ns == 500_000

    def test_refused_when_quorum_has_no_estimate(self):
        fe = frontend([(4, 3, 3)], estimate=None)
        fe.tick(1, 0)
        assert sum(fe.metrics.refused) == 10
        assert sum(fe.metrics.served) == 0
        assert fe.metrics.error_histogram == {}

    def test_fifo_waits_accumulate_in_ticks(self):
        fe = frontend([(10, 0, 0), (5, 0, 0)], service_per_tick=0.001)
        fe.tick(1, 0)
        fe.tick(2, 0)
        fe.service_per_tick = 100.0
        fe.tick(3, 0)
        # First batch waited 2 ticks, second 1 tick, drained in that order.
        assert list(fe.metrics.wait_histogram.items()) == [
            (2 * 10 * MILLISECOND, 10),
            (1 * 10 * MILLISECOND, 5),
        ]

    def test_equal_values_fold_into_one_histogram_entry(self):
        fe = frontend([(10, 0, 0), (6, 0, 0)], estimate=1_500_000)
        fe.tick(1, 1_000_000)
        fe.tick(2, 1_000_000)
        assert fe.metrics.error_histogram == {500_000: 16}
        assert fe.metrics.wait_histogram == {0: 16}

    def test_degraded_anchor_marks_the_served_batch(self):
        fe = frontend([(4, 3, 3)])
        fe.quorum_client.anchor_degraded = True
        fe.tick(1, 0)
        assert fe.metrics.served == [4, 3, 3]
        assert fe.metrics.degraded == [4, 3, 3]

    def test_partial_drain_leaves_the_remainder_queued_fifo(self):
        fe = frontend([(10, 0, 0)], service_per_tick=4.0)
        fe.tick(1, 0)
        assert sum(fe.metrics.served) == 4
        assert fe.queue_depth == 6
        fe.tick(2, 0)
        assert sum(fe.metrics.served) == 8
        assert fe.queue_depth == 2

    def test_fractional_service_rate_carries_credit(self):
        fe = frontend([(10, 0, 0)], service_per_tick=0.5)
        fe.tick(1, 0)
        assert sum(fe.metrics.served) == 0  # credit 0.5: nothing drains yet
        fe.tick(2, 0)
        assert sum(fe.metrics.served) == 1  # credit reached 1.0

    def test_lease_violations_counted_beyond_the_guard_band(self):
        fe = frontend(
            [(0, 10, 0)], estimate=100 * MILLISECOND, lease_guard_ns=10 * MILLISECOND
        )
        fe.tick(1, 0)  # error 100 ms > guard 10 ms
        assert fe.metrics.lease_violations == 10

    def test_leases_within_the_guard_band_do_not_violate(self):
        fe = frontend(
            [(0, 10, 0)], estimate=5 * MILLISECOND, lease_guard_ns=10 * MILLISECOND
        )
        fe.tick(1, 0)
        assert fe.metrics.lease_violations == 0


class TestValidation:
    def test_rejects_bad_capacity_and_rate(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            frontend([], queue_capacity=0)
        with pytest.raises(ConfigurationError, match="service rate"):
            frontend([], service_per_tick=0.0)
