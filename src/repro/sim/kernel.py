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
The queue is a *heap of ticks*: ``_slots`` maps each occupied tick to three
FIFO lists, one per priority (each ``None`` until used), and ``_ticks`` is
a heapq of the slots' keys. Scheduling is a ``dict.get`` and a list append;
only the first event at a new tick pays a ``heappush`` of an int. Draining
takes the smallest tick and walks its FIFOs in priority order.

Ordering needs no further argument: every append happens in wall order, so
each FIFO holds its (tick, priority) events in schedule order, and draining
a tick's FIFOs in priority order *is* ``(time, priority, seq)`` order.

Determinism contract: within one tick, events process in ascending priority
(0 = Timeout, 1 = Event, 2 = Process completion), FIFO within a priority.
No other priority exists: defining an :class:`~repro.sim.events.Event`
subclass with a priority outside 0..2 raises
:class:`~repro.sim.events.SimulationError`, so a tick's three FIFOs order
every event the kernel can see.
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
    ST_REAPED,
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import RngRegistry

_object_new = object.__new__


def _reaped(event: Event, time: int) -> bool:
    """Mark a dead ``event`` dropped from tick ``time``; False if it is live."""
    if not event._state & ST_DEAD:
        return False
    event._state |= ST_REAPED
    event._tick = time
    return True


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
        # tick -> [fifo0, fifo1, fifo2] (Timeout, Event, Process completion),
        # each None until used; _ticks is a heapq of the keys. Both keep
        # their identity for the simulator's lifetime (compaction edits in
        # place), so hot loops may cache them in locals.
        self._slots: dict[int, list] = {}
        self._ticks: list[int] = []
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
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [[t], None, None]
            heappush(self._ticks, time)
        elif (fifo := slot[0]) is None:
            slot[0] = [t]
        else:
            fifo.append(t)
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
        time = self._now + delay
        slot = self._slots.get(time)
        if slot is None:
            slot = self._slots[time] = [None, None, None]
            heappush(self._ticks, time)
        prio = event.priority
        fifo = slot[prio]
        if fifo is None:
            slot[prio] = [event]
        else:
            fifo.append(event)

    # -- cancelled-event reaping ----------------------------------------------

    def _note_cancelled(self) -> None:
        """Account one cancelled (dead) queued event; compact when worth it.

        Compaction filters dead entries out of the queue so long
        blackhole/net-delay scenarios cannot grow it without bound. It is
        skipped while trace hooks are attached: the oracle's golden traces
        depend on the exact event-instant stream, and reaping would remove
        the (otherwise inert) hook invocations at dead-timeout ticks.
        """
        self._cancelled += 1
        if (
            self._cancelled >= 512
            and self._cancelled * 2 >= len(self._slots)
            and not self._trace_hooks
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries from every tick but the one being drained.

        ``_run`` holds read positions into the current tick's FIFOs, so
        that tick (``now``) is left as it is, and its dead entries the
        drain has not reached stay counted; every other tick keeps only
        its live entries and is removed when none remain.
        """
        slots = self._slots
        cancelled = 0
        for time, slot in list(slots.items()):
            if time == self._now:
                cancelled += sum(
                    1
                    for fifo in slot
                    if fifo
                    for event in fifo
                    if event._state & (ST_DEAD | ST_REAPED) == ST_DEAD
                )
                continue
            for prio, fifo in enumerate(slot):
                if fifo:
                    slot[prio] = [event for event in fifo if not _reaped(event, time)] or None
            if not any(slot):
                del slots[time]
        ticks = self._ticks
        ticks[:] = slots
        heapify(ticks)
        self._cancelled = cancelled

    def _drop_dead_ticks(self) -> None:
        """Pop leading ticks that hold only dead entries."""
        slots = self._slots
        ticks = self._ticks
        while ticks:
            slot = slots[ticks[0]]
            if not all(event._state & ST_DEAD for fifo in slot if fifo for event in fifo):
                return
            time = heappop(ticks)
            for fifo in slot:
                for event in fifo or ():
                    _reaped(event, time)
                    self._cancelled -= 1
            del slots[time]

    # -- queue introspection ----------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._ticks[0] if self._ticks else None

    # -- the event loop ---------------------------------------------------------

    def _suspend(self, time: int, slot: list, i0: int, i1: int, i2: int) -> None:
        """Drop the processed prefix of tick ``time`` after an early exit."""
        for prio, count in enumerate((i0, i1, i2)):
            if count:
                del slot[prio][:count]
        if not any(slot):
            del self._slots[time]
            heappop(self._ticks)

    def _run(self, limit: Optional[int], stop: Optional[Event]) -> None:
        """Drain events until the queue empties, ``limit`` is passed, or
        ``stop`` is processed. The workhorse behind :meth:`run`.
        """
        slots = self._slots
        ticks = self._ticks
        trace_hooks = self._trace_hooks
        free_append = self._free.append
        while ticks:
            t = ticks[0]
            if limit is not None and t > limit:
                # Cancelled guards must not outlive the run as queued ticks.
                if not trace_hooks:
                    self._drop_dead_ticks()
                return
            self._now = t
            slot = slots[t]
            # Drain tick `t` in priority order, FIFO within a priority.
            # FIFOs may appear or grow *while* we drain (same-tick
            # scheduling), so on an apparently-exhausted FIFO each branch
            # re-reads its cell and recomputes the cached length before
            # falling through to the next priority. The cached-length
            # compare (`i0 < n0`) keeps the dominant per-event cost to a
            # single int comparison.
            s0 = s1 = s2 = None
            n0 = n1 = n2 = 0
            i0 = i1 = i2 = 0
            while True:
                if i0 < n0 or (s0 := slot[0]) is not None and i0 < (n0 := len(s0)):
                    event = s0[i0]
                    i0 += 1
                elif i1 < n1 or (s1 := slot[1]) is not None and i1 < (n1 := len(s1)):
                    event = s1[i1]
                    i1 += 1
                elif i2 < n2 or (s2 := slot[2]) is not None and i2 < (n2 := len(s2)):
                    event = s2[i2]
                    i2 += 1
                else:
                    break
                state = event._state
                if state & ST_DEAD and not trace_hooks:
                    event._state = state | ST_REAPED
                    event._tick = t
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
                                # A fresh Timeout or an unprocessed plain
                                # Event (such as a node's wake-up)
                                # takes the waiter slot directly: the two
                                # stores `Event._add_callback` and
                                # `Process._loop` would make.
                                if (
                                    ((cls := nt.__class__) is Timeout or cls is Event)
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
                        self._suspend(t, slot, i0, i1, i2)
                        return
                except BaseException:
                    self._suspend(t, slot, i0, i1, i2)
                    raise
                # Recycle: 3 == the `event` local + the FIFO entry + the
                # getrefcount argument, i.e. nobody else kept a reference.
                if event.__class__ is Timeout and _getrefcount(event) == 3:
                    event._value = None
                    event._callbacks = None
                    free_append(event)
            # Tick fully drained; it is still the heap's smallest key.
            del slots[t]
            heappop(ticks)

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        slots = self._slots
        ticks = self._ticks
        while ticks:
            t = ticks[0]
            slot = slots[t]
            fifo = slot[0] or slot[1] or slot[2]
            # Remove *before* processing so a callback that raises (or
            # recursively steps) never sees it queued twice.
            event = fifo.pop(0)
            if not any(slot):
                del slots[t]
                heappop(ticks)
            if not self._trace_hooks and _reaped(event, t):
                self._cancelled -= 1
                continue
            self._now = t
            self._dispatch(event, t)
            return
        raise EmptySchedule("no more events scheduled")

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
                if not self._ticks:
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
        """Number of events currently enqueued, dead entries included."""
        return sum(len(fifo) for slot in self._slots.values() for fifo in slot if fifo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} queued={self._queued()} seed={self.seed}>"
