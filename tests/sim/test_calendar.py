"""Calendar-queue kernel tests: windows, rebase, reaping, priorities.

The contract tests in ``test_kernel.py`` pin the user-visible semantics;
this file exercises the queue *mechanics* introduced by the slot-calendar
overhaul (see ``docs/kernel.md``): the overflow heap for far-future events,
window rebase, late entries scheduled behind the drain cursor, cancelled
event reaping, and the rejection of priorities outside the three rings.
"""

import pytest

from repro.sim import Simulator
from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.kernel import _SLOTS, EmptySchedule, _defuse_on_fire


class TestCalendarWindow:
    def test_far_future_events_fire_in_order(self):
        """Delays straddling several calendar windows keep time order."""
        sim = Simulator()
        fired = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        delays = [1, _SLOTS - 1, _SLOTS, _SLOTS + 1, 3 * _SLOTS + 7, 10 * _SLOTS]
        for tag, delay in enumerate(delays):
            sim.process(waiter(delay, tag))
        sim.run()
        assert [t for t, _ in fired] == sorted(delays)
        assert fired == sorted(fired)

    def test_same_tick_fifo_preserved_across_heap_migration(self):
        """Events at one far-future tick fire in schedule order after rebase."""
        sim = Simulator()
        order = []
        when = 5 * _SLOTS + 3
        for tag in range(8):
            t = sim.timeout(when)
            t._add_callback(lambda _e, tag=tag: order.append(tag))
        sim.run()
        assert order == list(range(8))
        assert sim.now == when

    def test_peek_considers_ring_and_heap(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.timeout(5 * _SLOTS)  # overflow heap
        assert sim.peek() == 5 * _SLOTS
        sim.timeout(3)  # calendar ring
        assert sim.peek() == 3

    def test_step_across_rebase(self):
        sim = Simulator()
        sim.timeout(1)
        sim.timeout(2 * _SLOTS)
        sim.step()
        assert sim.now == 1
        sim.step()
        assert sim.now == 2 * _SLOTS
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_events_scheduled_behind_cursor_between_runs(self):
        """Regression: a drained slot's tick must still accept new events.

        Scheduling at the current instant after ``run()`` returns lands
        behind the drain cursor; such events take the late-heap path and
        must not be silently lost.
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
        timeouts = [sim.timeout(2 * _SLOTS + i) for i in range(4096)]
        assert len(sim._heap) == 4096
        for timeout in timeouts:
            timeout.cancel()
        assert len(sim._heap) < 1024

    def test_queue_stays_bounded_under_cancel_churn(self):
        """The ta-blackhole shape: guard timers armed and cancelled forever.

        Without reaping the heap would grow by 256 entries per round; with
        it the high-water mark stays within a small constant of one round.
        """
        sim = Simulator()
        high_water = 0
        for _ in range(64):
            guards = [sim.timeout(2 * _SLOTS + i) for i in range(256)]
            for guard in guards:
                guard.cancel()
            high_water = max(high_water, len(sim._heap))
        assert high_water <= 1024
        sim.run()  # dead entries drain without firing anything

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timeout = sim.timeout(2 * _SLOTS)
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

    def test_losing_anyof_guard_is_reapable(self):
        """``any_of([reply, guard])`` must not strand the losing guard."""
        sim = Simulator()
        reply = Event(sim)

        def responder():
            yield sim.timeout(5)
            reply.succeed("pong")

        def requester():
            guard = sim.timeout(3 * _SLOTS)
            result = yield sim.any_of([reply, guard])
            assert reply in result

        sim.process(responder())
        sim.process(requester())
        sim.run(until=10)
        # The guard lost the race, was detached, and has already been
        # reaped from the overflow heap — not stranded until 3*_SLOTS.
        assert not sim._heap
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
