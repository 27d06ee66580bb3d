"""Event primitives for the discrete-event kernel.

The kernel (:mod:`repro.sim.kernel`) schedules :class:`Event` objects on a
calendar queue keyed by simulated time. Processes (generator coroutines,
see :mod:`repro.sim.process`) suspend by yielding events and resume when the
yielded event fires.

Event lifecycle::

    pending --succeed(value)--> triggered(ok)   --processed--> done
            --fail(exc)------->  triggered(err) --processed--> done

An event may be triggered exactly once. Failing an event propagates the
exception into every process waiting on it; unhandled failures surface when
the kernel processes the event, so errors never pass silently.

Hot-path notes
--------------
Events are created millions of times per simulated minute, so the state
machine is packed into a single integer bit-field (:data:`ST_TRIGGERED` and
friends) and the common "exactly one waiter" case is stored in a dedicated
``_waiter`` slot instead of a list — a plain event plus its single resume
callback allocates no containers at all. The ``callbacks`` list the public
API exposes is materialized lazily on first access; internal code goes
through :meth:`Event._add_callback` / :meth:`Event._discard_callback`,
which keep the packed representation until someone actually needs a list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Simulator

#: Signature of an event callback: receives the fired event.
Callback = Callable[["Event"], None]

# -- packed event state -------------------------------------------------------
#
# The five booleans of the event lifecycle live in one int slot. Kernel and
# process hot paths test these with single bit-ops; the public ``triggered``
# / ``processed`` / ``ok`` properties decode them for everyone else.

#: succeed()/fail() has been called.
ST_TRIGGERED = 1
#: The trigger was a success (only meaningful with ST_TRIGGERED).
ST_OK = 2
#: The kernel has run the callbacks.
ST_PROCESSED = 4
#: A failure has a waiter and will not be re-raised by the kernel.
ST_DEFUSED = 8
#: ``Simulator.run(until=event)`` already registered its defuse hook
#: (guards against duplicate registration when awaited twice).
ST_DEFUSE_HOOKED = 16
#: Cancelled while queued: no waiters remain and the kernel is free to
#: reap the entry instead of processing it (see ``docs/kernel.md``).
ST_DEAD = 32


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """Raised when an event is succeeded or failed more than once."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies an arbitrary ``cause`` that the
    interrupted process can inspect — for example an
    :class:`repro.hardware.aex.AexEvent` describing an Asynchronous Enclave
    Exit.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*. Calling :meth:`succeed` or :meth:`fail` triggers
    them; the kernel then invokes the registered callbacks (in registration
    order) at the event's scheduled time.
    """

    __slots__ = ("sim", "_state", "_value", "_waiter", "_callbacks")

    #: Sort key within a single timestamp; lower runs first. Timeouts use
    #: priority 0, plain events 1, and process-completion events 2, so that
    #: state set by timeouts is visible to resumed processes.
    priority: int = 1

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # The kernel's calendar has exactly one ring per priority 0..2.
        if type(cls.priority) is not int or not 0 <= cls.priority <= 2:
            raise SimulationError(
                f"{cls.__name__}.priority must be an int in 0..2, got {cls.priority!r}"
            )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._state = 0
        self._value: Any = None
        #: The first registered callback (the common single-waiter case).
        self._waiter: Optional[Callback] = None
        #: Second and later callbacks; None until actually needed.
        self._callbacks: Optional[list[Callback]] = None

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed`/:meth:`fail` has been called."""
        return bool(self._state & ST_TRIGGERED)

    @property
    def processed(self) -> bool:
        """Whether the kernel has already run this event's callbacks."""
        return bool(self._state & ST_PROCESSED)

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        if not self._state & ST_TRIGGERED:
            raise SimulationError("event has not been triggered yet")
        return bool(self._state & ST_OK)

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if not self._state & ST_TRIGGERED:
            raise SimulationError("event has not been triggered yet")
        return self._value

    @property
    def callbacks(self) -> list[Callback]:
        """The registered callbacks, as a mutable list (lazy; see module doc).

        Accessing this materializes the packed single-waiter representation
        into a real list, so ``event.callbacks.append(cb)`` keeps working.
        """
        if self._state & ST_DEAD:
            self._revive()
        cbs = self._callbacks
        if cbs is None:
            cbs = self._callbacks = []
        waiter = self._waiter
        if waiter is not None:
            # The waiter was registered before anything in the list.
            self._waiter = None
            cbs.insert(0, waiter)
        return cbs

    # -- callback plumbing (internal fast paths) -----------------------------

    def _revive(self) -> None:
        """Clear a dead mark: someone re-awaited a detached event.

        An interrupted process may re-yield its original (still pending)
        timeout, so reap-marking must be reversible until processing.
        """
        self._state &= ~ST_DEAD
        self.sim._cancelled -= 1

    def _add_callback(self, callback: Callback) -> None:
        """Register ``callback`` without materializing the public list."""
        if self._state & ST_DEAD:
            self._revive()
        if self._waiter is None and self._callbacks is None:
            self._waiter = callback
        else:
            cbs = self._callbacks
            if cbs is None:
                self._callbacks = [callback]
            else:
                cbs.append(callback)

    def _discard_callback(self, callback: Callback) -> None:
        """Remove ``callback`` if registered; mark dead when none remain.

        A triggered-ok event left queued with no waiters is inert: the
        kernel may reap it without processing (cancelled-timeout cleanup
        during long blackhole/net-delay scenarios). Failed events are never
        marked dead — their unawaited failure must still surface.
        """
        if self._waiter is callback:
            self._waiter = None
        else:
            cbs = self._callbacks
            if cbs is not None and callback in cbs:
                cbs.remove(callback)
        if (
            self._waiter is None
            and not self._callbacks
            and (self._state & (ST_TRIGGERED | ST_OK | ST_PROCESSED | ST_DEAD))
            == (ST_TRIGGERED | ST_OK)
        ):
            self._state |= ST_DEAD
            self.sim._note_cancelled()

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` postpones callback execution by that many simulated
        nanoseconds (default: fire at the current instant).
        """
        state = self._state
        if state & ST_TRIGGERED:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._state = state | (ST_TRIGGERED | ST_OK)
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event as failed, carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        state = self._state
        if state & ST_TRIGGERED:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._state = state | ST_TRIGGERED
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._state |= ST_DEFUSED

    def _trigger(self, ok: bool, value: Any, delay: int) -> None:
        state = self._state
        if state & ST_TRIGGERED:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._state = state | (ST_TRIGGERED | ST_OK if ok else ST_TRIGGERED)
        self._value = value
        self.sim._schedule(self, delay)

    def _process(self) -> None:
        """Run callbacks. Called by the kernel only."""
        self._state |= ST_PROCESSED
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter(self)
        cbs = self._callbacks
        if cbs:
            self._callbacks = None
            for callback in cbs:
                callback(self)

    # -- composition --------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state
        label = (
            "processed"
            if state & ST_PROCESSED
            else ("triggered" if state & ST_TRIGGERED else "pending")
        )
        return f"<{type(self).__name__} {label} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created via :meth:`repro.sim.kernel.Simulator.timeout`; it is triggered
    at construction time, so it cannot be succeeded or failed manually.
    """

    __slots__ = ()

    priority = 0  # PRIORITY_TIMEOUT: timeouts run before process resumes

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        self.sim = sim
        self._state = 0
        self._value = None
        self._waiter = None
        self._callbacks = None
        self._trigger(ok=True, value=value, delay=delay)

    def cancel(self) -> None:
        """Drop all waiters; the kernel may then reap the queued entry.

        Idempotent. After cancellation the timeout still reads as
        triggered-ok, but nothing will run when (or if) it is processed.
        """
        self._waiter = None
        self._callbacks = None
        if (self._state & (ST_PROCESSED | ST_DEAD)) == 0:
            self._state |= ST_DEAD
            self.sim._note_cancelled()


class ConditionError(SimulationError):
    """Raised when a composite condition observes a failed sub-event."""


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_pending_count", "_observe_cb")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._pending_count = 0
        observe = self._observe_cb = self._observe
        for event in self.events:
            if event._state & ST_PROCESSED:
                self._observe(event)
            else:
                self._pending_count += 1
                event._add_callback(observe)
        if not self._state & ST_TRIGGERED and self._satisfied():
            self.succeed(self._collect())
            self._detach_pending()

    def _observe(self, event: Event) -> None:
        self._pending_count -= 1
        if self._state & ST_TRIGGERED:
            return
        if not event._state & ST_OK:
            event.defuse()
            self.fail(ConditionError(f"sub-event failed: {event.value!r}"))
            self._detach_pending()
            return
        if self._satisfied():
            self.succeed(self._collect())
            self._detach_pending()

    def _detach_pending(self) -> None:
        """Stop watching sub-events that can no longer affect the outcome.

        Losing timeouts (e.g. the guard in ``any_of([reply, timeout])``)
        thereby become waiter-less and reapable, so they do not pile up in
        the queue during long blackhole/net-delay scenarios. A failure of a
        detached sub-event keeps its normal unawaited-failure semantics,
        exactly as it did when the condition ignored late observations.
        """
        if self._pending_count <= 0:
            return
        observe = self._observe_cb
        for event in self.events:
            if not event._state & ST_PROCESSED:
                event._discard_callback(observe)
        self._pending_count = 0

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # Keyed on `processed`, not `triggered`: a Timeout is triggered at
        # construction but only *fires* when the kernel processes it at its
        # scheduled instant.
        return {
            event: event._value
            for event in self.events
            if (event._state & (ST_PROCESSED | ST_OK)) == (ST_PROCESSED | ST_OK)
        }


class AllOf(_Condition):
    """Fires when every sub-event has fired successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        done = ST_PROCESSED | ST_OK
        return all((event._state & done) == done for event in self.events)


class AnyOf(_Condition):
    """Fires as soon as any sub-event fires successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        done = ST_PROCESSED | ST_OK
        return any((event._state & done) == done for event in self.events)
