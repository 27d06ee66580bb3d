"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock (integer nanoseconds) and an
event queue ordered by ``(time, priority, sequence)``. Determinism is a core
requirement — the paper's experiments must be exactly reproducible from a
seed — so the queue breaks ties in schedule order and all randomness flows
through :mod:`repro.sim.rng` streams.

Typical usage::

    sim = Simulator(seed=42)

    def ticker(sim):
        while True:
            yield sim.timeout(units.SECOND)
            print(sim.now)

    sim.process(ticker(sim), name="ticker")
    sim.run(until=10 * units.SECOND)

Queue design (see ``docs/kernel.md`` for the full story)
--------------------------------------------------------
The queue is a *calendar* of ``_SLOTS`` one-nanosecond buckets covering the
window ``[epoch, epoch + _SLOTS)``, one FIFO list per (tick, priority) pair,
plus an overflow heap for events outside the window or behind the drain
cursor. Near-future scheduling — the overwhelmingly common case for protocol
timeouts and AEX arrivals — is a list append; draining walks an occupancy
bytearray with ``bytes.find`` (memchr speed) to skip empty slots. When the
window empties, the calendar rebases onto the next heap event and migrates
everything that now fits.

Ordering is preserved because a heap entry for tick ``T`` is always *older*
(scheduled earlier in wall order) than any ring append at ``T``: events go
to the heap only while ``T`` is outside the window or behind the cursor, the
window start and cursor only move forward, and rebase migrates heap entries
(in heap order) before any new ring append at those ticks can happen. Late
heap entries — scheduled behind the cursor between ``run()`` calls — are
drained before the calendar's next slot.

Determinism contract: within one tick, events process in ascending priority
(0 = Timeout, 1 = Event, 2 = Process completion), FIFO within a priority.
This is exactly the old ``(time, priority, seq)`` heap order. No other
priority exists: defining an :class:`~repro.sim.events.Event` subclass
with a priority outside 0..2 raises
:class:`~repro.sim.events.SimulationError`, so the three rings order every
event the kernel can see.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount as _getrefcount
from typing import Any, Optional

from repro.sim.events import (
    ST_DEAD,
    ST_DEFUSE_HOOKED,
    ST_DEFUSED,
    ST_OK,
    ST_PROCESSED,
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import RngRegistry

#: Width of the calendar window in nanosecond ticks. Wide enough that the
#: per-node protocol cadence (µs-scale local steps) stays on the fast path;
#: ms-scale gaps go through a rebase, which lands the next event at slot 0.
_SLOTS = 8192

_object_new = object.__new__


def _defuse_on_fire(event: Event) -> None:
    """Module-level defuse hook for ``run(until=event)`` (single instance)."""
    event.defuse()


class EmptySchedule(SimulationError):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """Deterministic discrete-event simulator with integer-nanosecond time.

    Parameters
    ----------
    seed:
        Master seed for the per-purpose random streams available via
        :attr:`rng`. Two simulators built with the same seed and driven by
        the same process structure produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: int = 0
        # Calendar window [epoch, epoch + _SLOTS): one FIFO bucket list per
        # (tick, priority), occupancy bytearray for memchr-speed skipping.
        self._epoch: int = 0
        self._cursor: int = 0
        self._ring0: list = [None] * _SLOTS  # priority 0: Timeout
        self._ring1: list = [None] * _SLOTS  # priority 1: Event
        self._ring2: list = [None] * _SLOTS  # priority 2: Process completion
        self._occ = bytearray(_SLOTS)
        # Overflow heap of (time, priority, seq, event). Its identity is
        # stable for the simulator's lifetime (compaction edits in place),
        # so hot loops may cache it in a local.
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq: int = 0
        self._cancelled: int = 0
        # Timeout freelist: processed timeouts with no surviving references
        # (checked via sys.getrefcount) are reinitialized in place by
        # :meth:`timeout` instead of allocated fresh.
        self._free: list[Timeout] = []
        self._active_process: Optional[Process] = None
        # Keyed structure: O(1) idempotent add/remove, insertion-ordered.
        self._trace_hooks: dict = {}
        self.rng = RngRegistry(seed)
        self.seed = seed

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds since simulation start."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` nanoseconds from now.

        This is the kernel's hottest allocation site, so the Timeout is
        built and enqueued inline rather than via ``Timeout.__init__`` +
        ``_schedule`` (which this path mirrors exactly).
        """
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        try:
            t = self._free.pop()
            t._state = 3  # ST_TRIGGERED | ST_OK
            t._value = value
        except IndexError:
            t = _object_new(Timeout)
            t.sim = self
            t._state = 3  # ST_TRIGGERED | ST_OK
            t._value = value
            t._waiter = None
            t._callbacks = None
        time = self._now + delay
        rel = time - self._epoch
        if self._cursor <= rel < _SLOTS:
            ring0 = self._ring0
            bucket = ring0[rel]
            if bucket is None:
                ring0[rel] = [t]
                self._occ[rel] = 1
            else:
                bucket.append(t)
        else:
            self._seq += 1
            heappush(self._heap, (time, 0, self._seq, t))
        return t

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a process; returns the process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that fires once all ``events`` have fired successfully."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires successfully."""
        return AnyOf(self, events)

    # -- tracing ---------------------------------------------------------------

    def add_trace_hook(self, hook) -> None:
        """Register ``hook(now_ns)`` to run after every processed event.

        Trace hooks are observational: they run in zero simulated time and
        must not schedule events, so an instrumented run (e.g. under the
        invariant oracle) produces exactly the trace an uninstrumented run
        would. Idempotent per hook.
        """
        self._trace_hooks[hook] = None

    def remove_trace_hook(self, hook) -> None:
        """Deregister a trace hook; unknown hooks are ignored."""
        self._trace_hooks.pop(hook, None)

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        """Enqueue a triggered event for processing after ``delay`` ns."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        prio = event.priority
        time = self._now + delay
        rel = time - self._epoch
        if self._cursor <= rel < _SLOTS:
            ring = self._ring0 if prio == 0 else (self._ring1 if prio == 1 else self._ring2)
            bucket = ring[rel]
            if bucket is None:
                ring[rel] = [event]
                self._occ[rel] = 1
            else:
                bucket.append(event)
        else:
            self._seq += 1
            heappush(self._heap, (time, prio, self._seq, event))

    # -- cancelled-event reaping ----------------------------------------------

    def _note_cancelled(self) -> None:
        """Account one cancelled (dead) queued event; compact when worth it.

        Compaction rewrites the heap without dead entries so long
        blackhole/net-delay scenarios cannot grow the queue without bound.
        It is skipped while trace hooks are attached: the oracle's golden
        traces depend on the exact event-instant stream, and reaping would
        remove the (otherwise inert) hook invocations at dead-timeout ticks.
        """
        self._cancelled += 1
        if (
            self._cancelled >= 512
            and self._cancelled * 2 >= len(self._heap)
            and not self._trace_hooks
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3]._state & ST_DEAD]
        heapify(heap)
        self._cancelled = 0

    # -- queue introspection ----------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        t_heap = self._heap[0][0] if self._heap else None
        idx = self._occ.find(1, self._cursor)
        if idx >= 0:
            t_ring = self._epoch + idx
            if t_heap is None or t_ring <= t_heap:
                return t_ring
        return t_heap

    # -- the event loop ---------------------------------------------------------

    def _rebase(self) -> None:
        """Move the window to the next heap event; migrate what now fits.

        Caller guarantees the rings are empty and the heap is not.
        """
        heap = self._heap
        epoch = self._epoch = heap[0][0]
        self._cursor = 0
        horizon = epoch + _SLOTS
        occ = self._occ
        rings = (self._ring0, self._ring1, self._ring2)
        while heap and heap[0][0] < horizon:
            time, prio, _seq, event = heappop(heap)
            rel = time - epoch
            ring = rings[prio]
            bucket = ring[rel]
            if bucket is None:
                ring[rel] = [event]
            else:
                bucket.append(event)
            occ[rel] = 1

    def _suspend_slot(self, idx: int, i0: int, i1: int, i2: int) -> None:
        """Drop the processed prefix of slot ``idx`` after an early exit."""
        remaining = 0
        for count, ring in ((i0, self._ring0), (i1, self._ring1), (i2, self._ring2)):
            bucket = ring[idx]
            if bucket is not None:
                if count:
                    del bucket[:count]
                if bucket:
                    remaining += len(bucket)
                else:
                    ring[idx] = None
        if remaining:
            self._occ[idx] = 1
            self._cursor = idx
        else:
            self._occ[idx] = 0
            self._cursor = idx + 1

    def _drain_late_heap(self, t_ring: int, limit: Optional[int], stop: Optional[Event]) -> bool:
        """Process heap entries older than the next calendar slot.

        Late entries appear when code outside the event loop schedules at a
        tick the drain cursor has already passed (e.g. ``succeed()`` between
        two ``run()`` calls). Returns True when ``stop`` fired.
        """
        heap = self._heap
        trace_hooks = self._trace_hooks
        while heap and heap[0][0] < t_ring:
            when = heap[0][0]
            if limit is not None and when > limit:
                return False
            _, _, _, event = heappop(heap)
            if not trace_hooks and event._state & ST_DEAD:
                self._cancelled -= 1
                continue
            self._now = when
            event._process()
            if trace_hooks:
                for hook in tuple(trace_hooks):
                    hook(when)
            if not event._state & ST_OK and not event._state & ST_DEFUSED:
                raise event._value
            if stop is not None and stop._state & ST_PROCESSED:
                return True
        return False

    def _run(self, limit: Optional[int], stop: Optional[Event]) -> None:
        """Drain events until the queue empties, ``limit`` is passed, or
        ``stop`` is processed. The workhorse behind :meth:`run`.
        """
        occ = self._occ
        ring0 = self._ring0
        ring1 = self._ring1
        ring2 = self._ring2
        heap = self._heap
        trace_hooks = self._trace_hooks
        free_append = self._free.append
        while True:
            # Find the next occupied tick.
            idx = occ.find(1, self._cursor)
            if idx < 0:
                # Skip dead (cancelled) heap entries outright when nothing
                # observes event instants; with hooks attached they must
                # still produce their hook tick, so they migrate normally.
                if not trace_hooks:
                    while heap and heap[0][3]._state & ST_DEAD:
                        heappop(heap)
                        self._cancelled -= 1
                if not heap:
                    return
                if limit is not None and heap[0][0] > limit:
                    return
                # Rebase puts the next event at rel 0: no re-find needed.
                self._rebase()
                idx = 0
            t = self._epoch + idx
            if heap and heap[0][0] < t:
                # Late entries scheduled behind the cursor run first.
                if limit is not None and heap[0][0] > limit:
                    return
                if self._drain_late_heap(t, limit, stop):
                    return
                continue
            if limit is not None and t > limit:
                self._cursor = idx
                return
            self._now = t
            # Drain slot `idx` in priority order, FIFO within a priority.
            # Buckets may appear or grow *while* we drain (same-tick
            # scheduling), so on an apparently-exhausted ring each branch
            # re-reads its cell and recomputes the cached length before
            # falling through to the next priority. The cached-length
            # compare (`i0 < n0`) keeps the dominant per-event cost to a
            # single int comparison.
            s0 = s1 = s2 = None
            n0 = n1 = n2 = 0
            i0 = i1 = i2 = 0
            while True:
                if i0 < n0 or (s0 := ring0[idx]) is not None and i0 < (n0 := len(s0)):
                    event = s0[i0]
                    i0 += 1
                elif i1 < n1 or (s1 := ring1[idx]) is not None and i1 < (n1 := len(s1)):
                    event = s1[i1]
                    i1 += 1
                elif i2 < n2 or (s2 := ring2[idx]) is not None and i2 < (n2 := len(s2)):
                    event = s2[i2]
                    i2 += 1
                else:
                    break
                state = event._state
                if state & ST_DEAD and not trace_hooks:
                    self._cancelled -= 1
                    continue
                # ---- inline Event._process ------------------------------
                event._state = state | ST_PROCESSED
                try:
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        if (
                            waiter.__class__ is Process
                            and state & ST_OK
                            and not waiter._interrupts
                        ):
                            # Inline one generator send: the dominant path
                            # (a process waiting on a successful timeout).
                            # `active_process` is deliberately not set here
                            # — it has no readers outside Process._resume,
                            # and the store/clear pair costs ~8% of the path.
                            try:
                                nt = waiter._send(event._value)
                            except StopIteration as stop_iter:
                                waiter._target = None
                                waiter.succeed(stop_iter.value)
                                nt = None
                            except BaseException as exc:
                                waiter._died(exc)
                                nt = None
                            if nt is not None:
                                if (
                                    nt.__class__ is Timeout
                                    and nt.sim is self
                                    and not nt._state & (ST_PROCESSED | ST_DEAD)
                                    and nt._waiter is None
                                    and nt._callbacks is None
                                ):
                                    nt._waiter = waiter
                                    waiter._target = nt
                                else:
                                    self._active_process = waiter
                                    try:
                                        waiter._advance(nt, event)
                                    finally:
                                        self._active_process = None
                        else:
                            waiter(event)
                    cbs = event._callbacks
                    if cbs:
                        event._callbacks = None
                        for callback in cbs:
                            callback(event)
                    if trace_hooks:
                        for hook in tuple(trace_hooks):
                            hook(t)
                    if not state & ST_OK and not event._state & ST_DEFUSED:
                        # An unawaited failure: surface it, don't lose it.
                        raise event._value
                    if stop is not None and stop._state & ST_PROCESSED:
                        self._suspend_slot(idx, i0, i1, i2)
                        return
                except BaseException:
                    self._suspend_slot(idx, i0, i1, i2)
                    raise
                # Recycle: 3 == the `event` local + the bucket entry + the
                # getrefcount argument, i.e. nobody else kept a reference.
                if event.__class__ is Timeout and _getrefcount(event) == 3:
                    event._value = None
                    event._callbacks = None
                    free_append(event)
            # Slot fully drained: release the bucket lists.
            if s0 is not None:
                ring0[idx] = None
            if s1 is not None:
                ring1[idx] = None
            if s2 is not None:
                ring2[idx] = None
            occ[idx] = 0
            self._cursor = idx + 1

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        trace_hooks = self._trace_hooks
        heap = self._heap
        occ = self._occ
        while True:
            idx = occ.find(1, self._cursor)
            if idx < 0:
                if not trace_hooks:
                    while heap and heap[0][3]._state & ST_DEAD:
                        heappop(heap)
                        self._cancelled -= 1
                if not heap:
                    raise EmptySchedule("no more events scheduled")
                self._rebase()
                idx = 0
            t = self._epoch + idx
            # Late heap entries (scheduled behind the cursor) run first.
            while heap and heap[0][0] < t:
                when, _prio, _seq, event = heappop(heap)
                if not trace_hooks and event._state & ST_DEAD:
                    self._cancelled -= 1
                    continue
                self._now = when
                self._dispatch(event, when)
                return
            for ring in (self._ring0, self._ring1, self._ring2):
                bucket = ring[idx]
                if bucket:
                    event = bucket[0]
                    # Remove *before* processing so a callback that raises
                    # (or recursively steps) never sees it queued twice.
                    del bucket[0]
                    if not bucket:
                        ring[idx] = None
                    if not trace_hooks and event._state & ST_DEAD:
                        self._cancelled -= 1
                        break  # re-scan this slot for the next entry
                    self._now = t
                    self._dispatch(event, t)
                    return
            else:
                occ[idx] = 0
                self._cursor = idx + 1

    def _dispatch(self, event: Event, when: int) -> None:
        event._process()
        if self._trace_hooks:
            for hook in tuple(self._trace_hooks):
                hook(when)
        if not event._state & ST_OK and not event._state & ST_DEFUSED:
            # An unawaited failure: surface it rather than losing it.
            raise event._value

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * an ``int`` — run until that simulated time, inclusive of events
          scheduled exactly at it;
        * an :class:`Event` — run until that event has been processed, and
          return its value (raising its exception if it failed).
        """
        if until is None:
            self._run(None, None)
            return None

        if isinstance(until, Event):
            target = until
            if not target._state & ST_PROCESSED:
                # We are a waiter: a failure of the target is handled here,
                # not by the kernel's unawaited-failure check. Register the
                # hook exactly once even if the same event is awaited twice.
                if not target._state & ST_DEFUSE_HOOKED:
                    target._state |= ST_DEFUSE_HOOKED
                    target._add_callback(_defuse_on_fire)
            while not target._state & ST_PROCESSED:
                if not self._heap and self._occ.find(1, self._cursor) < 0:
                    raise SimulationError("simulation ran out of events before `until` event fired")
                self._run(None, target)
            if not target._state & ST_OK:
                raise target._value
            return target._value

        if isinstance(until, int):
            if until < self._now:
                raise ValueError(f"cannot run until {until} < now ({self._now})")
            self._run(until, None)
            self._now = until
            return None

        raise TypeError(f"until must be None, int, or Event, got {type(until).__name__}")

    def _queued(self) -> int:
        """Number of events currently enqueued (rings + heap). O(window)."""
        count = len(self._heap)
        idx = self._occ.find(1, self._cursor)
        while idx >= 0:
            for ring in (self._ring0, self._ring1, self._ring2):
                bucket = ring[idx]
                if bucket:
                    count += len(bucket)
            idx = self._occ.find(1, idx + 1)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} queued={self._queued()} seed={self.seed}>"
