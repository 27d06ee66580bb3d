"""Tick-heap kernel tests: far-future ticks, resumption, reaping, priorities.

The contract tests in ``test_kernel.py`` pin the user-visible semantics and
``test_ordering.py`` checks the firing order against a reference heap; this
file exercises the queue *mechanics* (see ``docs/kernel.md``): a heap of
distinct ticks, each holding one FIFO per priority — far-future ticks,
same-tick FIFO order, ticks scheduled between ``run()`` calls, cancelled
event reaping, and the rejection of priorities outside the three FIFOs.
"""

import pytest

from repro.sim import Simulator
from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.kernel import EmptySchedule, _defuse_on_fire

#: A far-future delay in ns. 8192 was the width of the calendar window the
#: tick heap replaced, so the window's boundary cases stay covered.
_FAR = 8192


class TestCalendarWindow:
    def test_far_future_events_fire_in_order(self):
        """Far-future delays around and beyond 8192 ns keep time order."""
        sim = Simulator()
        fired = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        delays = [1, _FAR - 1, _FAR, _FAR + 1, 3 * _FAR + 7, 10 * _FAR]
        for tag, delay in enumerate(delays):
            sim.process(waiter(delay, tag))
        sim.run()
        assert [t for t, _ in fired] == sorted(delays)
        assert fired == sorted(fired)

    def test_same_tick_fifo_preserved_across_heap_migration(self):
        """Events at one far-future tick fire in schedule order."""
        sim = Simulator()
        order = []
        when = 5 * _FAR + 3
        for tag in range(8):
            t = sim.timeout(when)
            t._add_callback(lambda _e, tag=tag: order.append(tag))
        sim.run()
        assert order == list(range(8))
        assert sim.now == when

    def test_peek_considers_ring_and_heap(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.timeout(5 * _FAR)  # far tick first
        assert sim.peek() == 5 * _FAR
        sim.timeout(3)  # a nearer tick becomes the heap top
        assert sim.peek() == 3

    def test_step_across_rebase(self):
        sim = Simulator()
        sim.timeout(1)
        sim.timeout(2 * _FAR)
        sim.step()
        assert sim.now == 1
        sim.step()
        assert sim.now == 2 * _FAR
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_events_scheduled_behind_cursor_between_runs(self):
        """Regression: a drained slot's tick must still accept new events.

        Scheduling at the current instant after ``run()`` returns lands on
        a tick that has already been drained and deleted; it must open a
        fresh tick and not be silently lost.
        """
        sim = Simulator()
        sim.timeout(10)
        sim.run()
        fired = []

        def p():
            yield sim.timeout(0)
            fired.append(sim.now)

        sim.process(p())
        sim.run()
        assert fired == [10]


class TestCancelledReaping:
    def test_cancelled_far_future_timeouts_are_compacted(self):
        sim = Simulator()
        timeouts = [sim.timeout(2 * _FAR + i) for i in range(4096)]
        assert sim._queued() == 4096
        for timeout in timeouts:
            timeout.cancel()
        assert sim._queued() < 1024

    def test_queue_stays_bounded_under_cancel_churn(self):
        """The ta-blackhole shape: guard timers armed and cancelled forever.

        Without reaping the queue would grow by 256 entries per round; with
        it the high-water mark stays within a small constant of one round.
        """
        sim = Simulator()
        high_water = 0
        for _ in range(64):
            guards = [sim.timeout(2 * _FAR + i) for i in range(256)]
            for guard in guards:
                guard.cancel()
            high_water = max(high_water, sim._queued())
        assert high_water <= 1024
        sim.run()  # dead entries drain without firing anything

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timeout = sim.timeout(2 * _FAR)
        timeout.cancel()
        timeout.cancel()
        assert sim._cancelled == 1

    def test_cancelled_timeout_can_be_reawaited(self):
        """Reap marks must be reversible until the event is processed."""
        sim = Simulator()
        timeout = sim.timeout(50)
        timeout.cancel()
        got = []

        def p():
            got.append((yield timeout))

        sim.process(p())
        sim.run()
        assert got == [None]
        assert sim.now == 50
        assert sim._cancelled == 0

    def _reawait(self, sim, timeout):
        fired = []

        def p():
            fired.append(((yield timeout), sim.now))

        sim.process(p())
        sim.run()
        return fired

    def test_timeout_reaped_by_compaction_can_be_reawaited(self):
        """A compacted entry is queued again, at its own tick, when re-awaited."""
        sim = Simulator()
        timeouts = [sim.timeout(2 * _FAR + i, value=i) for i in range(600)]
        for timeout in timeouts:
            timeout.cancel()
        assert sim._queued() < 600  # compaction dropped the entries
        assert self._reawait(sim, timeouts[7]) == [(7, 2 * _FAR + 7)]
        assert sim._cancelled == 0

    def test_timeout_reaped_at_the_run_limit_can_be_reawaited(self):
        """``run(until=t)`` drops dead ticks past ``t``; re-awaiting restores one."""
        sim = Simulator()
        timeout = sim.timeout(100_000)
        timeout.cancel()
        sim.run(until=10)
        assert sim._queued() == 0
        assert self._reawait(sim, timeout) == [(None, 100_000)]
        assert sim._cancelled == 0

    def test_timeout_reaped_at_its_tick_fires_at_once_when_reawaited(self):
        """A dead entry skipped at its own tick has expired: it fires now."""
        sim = Simulator()
        timeout = sim.timeout(5)
        timeout.cancel()
        sim.run(until=10)
        assert self._reawait(sim, timeout) == [(None, 10)]
        assert sim._cancelled == 0

    def test_losing_anyof_guard_is_reapable(self):
        """``any_of([reply, guard])`` must not strand the losing guard."""
        sim = Simulator()
        reply = Event(sim)

        def responder():
            yield sim.timeout(5)
            reply.succeed("pong")

        def requester():
            guard = sim.timeout(3 * _FAR)
            result = yield sim.any_of([reply, guard])
            assert reply in result

        sim.process(responder())
        sim.process(requester())
        sim.run(until=10)
        # The guard lost the race, was detached, and has already been
        # reaped from the queue — not stranded until 3*_FAR.
        assert sim._queued() == 0
        assert sim._cancelled == 0


class TestPriorityRejection:
    @pytest.mark.parametrize("priority", [-1, 3, 9, 1.5, "1", None])
    def test_priority_outside_the_rings_is_rejected_at_definition(self, priority):
        with pytest.raises(SimulationError, match="priority must be an int in 0..2"):
            type("Exotic", (Event,), {"priority": priority})

    def test_ring_priorities_are_accepted(self):
        order = []
        sim = Simulator()
        for priority in (2, 1, 0):
            cls = type(f"P{priority}", (Event,), {"__slots__": (), "priority": priority})
            event = cls(sim)
            event._add_callback(lambda _e, p=priority: order.append(p))
            event.succeed(delay=5)
        sim.run()
        assert order == [0, 1, 2]


class TestRunUntilEvent:
    def test_reawaiting_same_event_registers_single_defuse_hook(self):
        """Regression: two ``run(until=ev)`` calls must not double-register."""
        sim = Simulator()
        ev = Event(sim)
        sim.timeout(1)
        with pytest.raises(SimulationError):
            sim.run(until=ev)  # queue drains before ev fires
        sim.timeout(1)
        with pytest.raises(SimulationError):
            sim.run(until=ev)
        assert ev.callbacks.count(_defuse_on_fire) == 1

    def test_run_until_failed_event_raises_cleanly(self):
        sim = Simulator()
        ev = Event(sim)

        def failer():
            yield sim.timeout(3)
            ev.fail(RuntimeError("boom"))

        sim.process(failer())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=ev)


class TestTimeoutRecycling:
    def test_recycled_timeouts_preserve_values(self):
        """The freelist must never leak one timeout's value into another."""
        sim = Simulator()
        seen = []

        def p():
            for i in range(200):
                seen.append((yield sim.timeout(1, value=i)))

        sim.process(p())
        sim.run()
        assert seen == list(range(200))
        assert all(isinstance(t, Timeout) for t in sim._free)

    def test_retained_timeouts_are_not_recycled(self):
        sim = Simulator()
        kept = []

        def p():
            for i in range(50):
                timeout = sim.timeout(1, value=i)
                kept.append(timeout)
                yield timeout

        sim.process(p())
        sim.run()
        assert [t.value for t in kept] == list(range(50))
        assert not any(t in sim._free for t in kept)
