"""Differential test: the kernel's firing order against a reference heap.

The determinism contract (``docs/kernel.md``) is that events fire in
ascending ``(time, priority, schedule order)``. This test states that rule
directly as a few lines of plain ``heapq`` and runs it online beside the
kernel: every schedule the test makes is mirrored into the reference heap
with the current ``sim.now``, and every firing pops the reference. Random
schedules cover all three priorities, delays on both sides of 8192 ns and
far beyond, same-tick scheduling from inside callbacks, scheduling between
``run(until=t)`` resumptions, cancellations (bursts large enough to trigger
compaction mid-drain), and a final drain to empty.

A second harness adds processes that wait on plain events, the way a
node's main loop waits on its wake-up event: the kernel resumes them
inline and stores their next plain event in its waiter slot directly.
Callbacks and other processes succeed those events (same tick or later),
interrupt their waiters, and the interrupted processes re-await the same
event or move on to a fresh one; each resume is a firing checked against
the same reference.
"""

import heapq
import random
from collections import Counter

import pytest

from repro.sim import Event, Interrupt, Simulator

DELAYS = (0, 0, 1, 8191, 8192, 100_000, 3_000_000)
EVENTS_PER_SEED = 3300
BURST = 600  # cancelled timeouts per burst: above the 512 reaping threshold
SLEEPERS = 32  # processes waiting on plain events


class _Completion(Event):
    """A priority-2 event, the rank of a process completion."""

    __slots__ = ()
    priority = 2


class _Harness:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sim = Simulator(seed=seed)
        self.reference: list[tuple[int, int, int, int]] = []
        self.seq = 0
        self.budget = EVENTS_PER_SEED
        self.pending: dict[int, object] = {}  # live timeouts by tag
        self.cancelled: set[int] = set()
        self.fired: list[tuple[int, int]] = []
        self.expected: list[tuple[int, int]] = []

    def schedule(self) -> None:
        """Schedule one random event and mirror it into the reference."""
        sim, rng = self.sim, self.rng
        self.budget -= 1
        self.seq += 1
        tag = self.seq
        delay = rng.choice(DELAYS)
        priority = rng.randrange(3)
        if priority == 0:
            event = sim.timeout(delay)
            self.pending[tag] = event
        else:
            event = (Event if priority == 1 else _Completion)(sim)
            event.succeed(delay=delay)
        event.callbacks.append(lambda _e, tag=tag: self.fire(tag))
        heapq.heappush(self.reference, (sim.now + delay, priority, tag, tag))

    def cancel_one(self) -> None:
        if self.pending:
            tag = self.rng.choice(sorted(self.pending))
            self.pending.pop(tag).cancel()
            self.cancelled.add(tag)

    def cancel_burst(self) -> None:
        """The ta-blackhole shape: arm many guards, cancel them all."""
        for _ in range(BURST):
            self.sim.timeout(self.rng.choice(DELAYS[2:])).cancel()

    def pop_reference(self) -> tuple[int, int]:
        while True:
            time, _priority, _seq, tag = heapq.heappop(self.reference)
            if tag not in self.cancelled:
                return time, tag

    def fire(self, tag: int) -> None:
        self.pending.pop(tag, None)
        self.fired.append((self.sim.now, tag))
        self.expected.append(self.pop_reference())
        rng = self.rng
        if self.budget > 0:
            for _ in range(rng.choice((1, 1, 2))):
                self.schedule()
        if rng.random() < 0.1:
            self.cancel_one()
        if rng.random() < 0.004:
            self.cancel_burst()

    def live_reference(self) -> list[int]:
        return [tag for *_, tag in self.reference if tag not in self.cancelled]


class _ProcessHarness(_Harness):
    """The harness plus processes that wait on plain events.

    A sleeper is listed in ``sleeping`` exactly while it waits on an
    untriggered event that nobody has succeeded or interrupted yet, so
    every wake-up the reference expects reaches a live waiter.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sleeping: dict[int, Event] = {}
        self.counts: Counter = Counter()
        self.processes = [self.sim.process(self.sleeper(pid)) for pid in range(SLEEPERS)]

    def sleeper(self, pid: int):
        event = None
        while True:
            if event is None:
                event = Event(self.sim)
            else:
                self.counts["re-await"] += 1
            self.sleeping[pid] = event
            try:
                tag = yield event
            except Interrupt as interrupt:
                if self.rng.random() < 0.3:
                    event = None  # abandon it and wait on a fresh event
                self.fire(interrupt.cause)
                continue
            event = None
            self.fire(tag)

    def mirror(self, delay: int) -> int:
        """A priority-1 firing ``delay`` ns from now, in the reference."""
        self.budget -= 1
        self.seq += 1
        tag = self.seq
        heapq.heappush(self.reference, (self.sim.now + delay, 1, tag, tag))
        return tag

    def fire(self, tag: int) -> None:
        super().fire(tag)
        rng = self.rng
        if self.budget <= 0 or not self.sleeping:
            return
        pid = rng.choice(sorted(self.sleeping))
        event = self.sleeping.pop(pid)
        if rng.random() < 0.2:
            # The wake-up event `interrupt` succeeds now, at priority 1.
            self.processes[pid].interrupt(self.mirror(0))
            self.counts["interrupt"] += 1
        else:
            delay = rng.choice(DELAYS[:5])  # now or soon: sleepers cycle fast
            event.succeed(self.mirror(delay), delay=delay)
            self.counts["same-tick wake" if delay == 0 else "wake"] += 1


def _drive(harness: _Harness) -> None:
    sim, rng = harness.sim, harness.rng
    for _ in range(20):
        harness.schedule()
    for _ in range(6):
        sim.run(until=sim.now + rng.choice((1, 8192, 100_000, 1_000_000, 5_000_000)))
        # Between runs: same-tick (delay 0) and future schedules, a cancel.
        for _ in range(rng.randrange(1, 6)):
            harness.schedule()
        harness.cancel_one()
    sim.run()
    assert harness.fired == harness.expected
    assert len(harness.fired) >= EVENTS_PER_SEED // 2
    assert harness.live_reference() == []
    assert sim.peek() is None


@pytest.mark.parametrize("seed", range(12))
def test_firing_order_matches_reference_heap(seed):
    _drive(_Harness(seed))


@pytest.mark.parametrize("seed", range(12))
def test_process_wakeups_match_reference_heap(seed):
    harness = _ProcessHarness(seed)
    _drive(harness)
    for kind in ("wake", "same-tick wake", "interrupt", "re-await"):
        assert harness.counts[kind] > 10, kind
