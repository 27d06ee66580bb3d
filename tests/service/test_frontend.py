"""Front-end admission, shedding, expiry, and batch accounting."""

import random
from collections import deque

import pytest

from repro.errors import ConfigurationError
from repro.service.frontend import FrontEnd, _split_proportional
from repro.service.metrics import FrontEndMetrics
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


class ScriptedQuorumSeries:
    """Replays (estimate, degraded) answers and counts ``estimate()`` calls."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = 0
        self.anchor_degraded = False

    def estimate(self):
        estimate, self.anchor_degraded = self.answers[self.calls % len(self.answers)]
        self.calls += 1
        return estimate


class ReferenceFrontEnd:
    """The three-step admit / expire / drain front-end, kept as a model.

    A direct transcription of the front-end before its tick became one
    pass, with the per-kind recorders it called written out inline. The
    production tick must account exactly what this does.
    """

    def __init__(self, workload, quorum_client, queue_capacity, service_per_tick,
                 deadline_ticks, lease_guard_ns, tick_ns):
        self.workload = workload
        self.quorum_client = quorum_client
        self.queue_capacity = queue_capacity
        self.service_per_tick = service_per_tick
        self.deadline_ticks = deadline_ticks
        self.lease_guard_ns = lease_guard_ns
        self.tick_ns = tick_ns
        self.metrics = FrontEndMetrics(name="fe")
        self.queue = deque()
        self.queue_depth = 0
        self.credit = 0.0

    @staticmethod
    def _add(counts, kinds):
        for index in range(3):
            counts[index] += kinds[index]

    def tick(self, tick_index, true_now_ns):
        self._admit(tick_index)
        self._expire(tick_index)
        self._drain(tick_index, true_now_ns)

    def _admit(self, tick_index):
        kinds = self.workload.draw()
        if sum(kinds) <= 0:
            return
        admitted, shed = _split_proportional(kinds, self.queue_capacity - self.queue_depth)
        if sum(shed):
            self._add(self.metrics.shed, shed)
            self.workload.absorb(sum(shed))
        if sum(admitted):
            self.queue.append((tick_index, *admitted))
            self.queue_depth += sum(admitted)

    def _expire(self, tick_index):
        while self.queue and tick_index - self.queue[0][0] > self.deadline_ticks:
            _, *kinds = self.queue.popleft()
            self.queue_depth -= sum(kinds)
            self._add(self.metrics.expired, kinds)
            self.workload.absorb(sum(kinds))

    def _drain(self, tick_index, true_now_ns):
        metrics = self.metrics
        self.credit += self.service_per_tick
        budget = int(self.credit)
        if budget <= 0:
            return
        self.credit -= budget
        drained = [0, 0, 0]
        while budget > 0 and self.queue:
            tick, *kinds = self.queue.popleft()
            taken, rest = _split_proportional(tuple(kinds), budget)
            if sum(rest):
                self.queue.appendleft((tick, *rest))
            budget -= sum(taken)
            self.queue_depth -= sum(taken)
            self._add(drained, taken)
            wait_ns = (tick_index - tick) * self.tick_ns
            metrics.wait_histogram[wait_ns] = metrics.wait_histogram.get(wait_ns, 0) + sum(taken)
        if sum(drained) == 0:
            return
        estimate = self.quorum_client.estimate()
        if estimate is None:
            self._add(metrics.refused, drained)
        else:
            error_ns = estimate - true_now_ns
            self._add(metrics.served, drained)
            if self.quorum_client.anchor_degraded:
                self._add(metrics.degraded, drained)
            magnitude = abs(error_ns)
            metrics.error_histogram[magnitude] = (
                metrics.error_histogram.get(magnitude, 0) + sum(drained)
            )
            metrics.min_error_ns = min(metrics.min_error_ns, error_ns)
            metrics.max_error_ns = max(metrics.max_error_ns, error_ns)
            if magnitude > self.lease_guard_ns:
                metrics.lease_violations += drained[1]
        self.workload.absorb(sum(drained))


def run_pair(script, answers, queue_capacity, service_per_tick, deadline_ticks):
    """Drive the tick and the reference model with one script; compare them."""
    params = dict(
        queue_capacity=queue_capacity,
        service_per_tick=service_per_tick,
        deadline_ticks=deadline_ticks,
        lease_guard_ns=2 * MILLISECOND,
        tick_ns=10 * MILLISECOND,
    )
    fe = FrontEnd(
        name="fe",
        workload=ScriptedWorkload(script),
        quorum_client=ScriptedQuorumSeries(answers),
        **params,
    )
    ref = ReferenceFrontEnd(ScriptedWorkload(script), ScriptedQuorumSeries(answers), **params)
    for tick_index in range(1, len(script) + 4):
        now = tick_index * 10 * MILLISECOND
        fe.tick(tick_index, now)
        ref.tick(tick_index, now)
        assert fe.queue_depth == ref.queue_depth, tick_index
    assert fe.metrics == ref.metrics
    assert fe.workload.absorbed == ref.workload.absorbed
    assert fe.quorum_client.calls == ref.quorum_client.calls
    return fe


def random_case(seed):
    """A seeded script: under-load or overload, fractional or whole rates."""
    rng = random.Random(seed)
    service_per_tick = rng.choice([0.25, 0.5, 0.7, 1.0, 2.5, 7.0, 13.0, 40.0, 1000.0])
    queue_capacity = rng.randint(1, 60)
    mean = rng.choice([0.5, 3.0, 10.0, 40.0, 120.0])
    script = []
    for _ in range(rng.randint(1, 80)):
        roll = rng.random()
        if roll < 0.15:
            kinds = (0, 0, 0)
        elif roll < 0.25:
            # A batch exactly the queue's capacity or the whole-tick budget.
            size = rng.choice([queue_capacity, max(int(service_per_tick), 1)])
            lease = rng.randint(0, size)
            timeout = rng.randint(0, size - lease)
            kinds = (size - lease - timeout, lease, timeout)
        else:
            kinds = tuple(int(rng.expovariate(1.0 / mean)) for _ in range(3))
        script.append(kinds)
    answers = [
        (
            None if rng.random() < 0.2 else rng.randint(-5, 5) * MILLISECOND,
            rng.random() < 0.3,
        )
        for _ in range(rng.randint(1, 7))
    ]
    return script, answers, queue_capacity, service_per_tick, rng.randint(1, 4)


class TestOnePassTickMatchesTheThreeStepModel:
    def test_seeded_random_scripts(self):
        reached = {"shed": 0, "expired": 0, "refused": 0, "degraded": 0, "partial": 0}
        for seed in range(300):
            fe = run_pair(*random_case(seed))
            metrics = fe.metrics
            for key in ("shed", "expired", "refused", "degraded"):
                reached[key] += sum(getattr(metrics, key))
            reached["partial"] += len(metrics.wait_histogram) > 1
        # The scripts reach every path the one-pass tick folds together.
        assert all(reached.values()), reached

    @pytest.mark.parametrize("service_per_tick", [0.25, 0.5, 0.7])
    def test_zero_budget_ticks_carry_credit(self, service_per_tick):
        script = [(3, 1, 1), (0, 0, 0), (2, 2, 0), (0, 0, 0), (1, 0, 0)] * 4
        run_pair(script, [(1 * MILLISECOND, False)], 100, service_per_tick, 6)

    def test_batch_exactly_the_budget_drains_whole(self):
        fe = run_pair([(5, 3, 2)] * 5, [(0, False)], 100, 10.0, 2)
        assert fe.queue_depth == 0
        assert fe.metrics.wait_histogram == {0: 50}
        assert fe.quorum_client.calls == 5

    def test_batch_exactly_the_capacity_is_admitted_whole(self):
        fe = run_pair([(6, 2, 2), (6, 2, 2)], [(0, False)], 10, 0.5, 8)
        assert fe.metrics.shed == [6, 2, 2]

    def test_refusal_and_degraded_anchor(self):
        answers = [(None, False), (3 * MILLISECOND, True), (None, True), (0, False)]
        fe = run_pair([(4, 3, 3)] * 8, answers, 100, 1000.0, 2)
        assert sum(fe.metrics.refused) == 40
        assert fe.metrics.degraded == [8, 6, 6]

    def test_no_drain_means_no_estimate(self):
        fe = run_pair([(0, 0, 0)] * 3 + [(1, 0, 0)], [(0, False)], 5, 0.5, 1)
        assert fe.quorum_client.calls == 1
