"""Generator-based processes for the discrete-event kernel.

A *process* is a Python generator that models a concurrent activity: a TEE
node's protocol loop, a Time Authority server, an attacker, a monitoring
thread. The generator advances by yielding :class:`~repro.sim.events.Event`
objects; the kernel resumes it with the event's value once the event fires
(or throws the event's exception into it if the event failed).

Processes are themselves events: they fire when the generator returns, with
the generator's return value as the event value. This allows waiting for a
process to finish (``yield child_process``) and composing processes with
``&``/``|``.

Interrupts — the mechanism we use to model Asynchronous Enclave Exits —
throw :class:`~repro.sim.events.Interrupt` into the generator at its current
suspension point. The interrupted process decides how to react; the event it
was waiting on remains pending and can be re-awaited.

Hot-path notes
--------------
A Process *is* its own resume callback (``__call__`` aliases
:meth:`_resume`), so the kernel stores the Process object directly in the
awaited event's waiter slot — no bound-method allocation per suspension —
and can identity-test ``waiter.__class__ is Process`` to inline the dominant
resume-one-generator-send step (see ``Simulator._run``). The generator's
``send``/``throw`` are cached as slots at construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import (
    ST_DEFUSED,
    ST_OK,
    ST_PROCESSED,
    ST_TRIGGERED,
    Event,
    Interrupt,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Type alias for the generator driving a process.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process, created via :meth:`Simulator.process`."""

    __slots__ = ("name", "_generator", "_target", "_interrupts", "_send", "_throw")

    priority = 2  # resume processes after plain events at the same instant

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (None once done).
        self._target: Optional[Event] = None
        #: Queued interrupt causes delivered at the next resume opportunity.
        self._interrupts: list[Interrupt] = []
        # Bootstrap: resume the generator for the first time "immediately".
        initial = Event(sim)
        initial._waiter = self
        initial.succeed()
        self._target = initial

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._state & ST_TRIGGERED

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its suspension point.

        Interrupting a finished process is an error: the caller's model of
        the world is stale, and silently ignoring it would mask bugs.
        """
        if self._state & ST_TRIGGERED:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        self._interrupts.append(Interrupt(cause))
        target = self._target
        if target is not None and not target._state & ST_PROCESSED:
            # Detach from the awaited event and schedule an immediate resume
            # that will deliver the interrupt. The original target event is
            # left pending and may be awaited again by the handler.
            target._discard_callback(self)
            wakeup = Event(self.sim)
            wakeup._waiter = self
            wakeup.succeed()
            self._target = wakeup

    # -- kernel plumbing -----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with ``trigger``'s outcome."""
        sim = self.sim
        sim._active_process = self
        try:
            self._loop(trigger, None, False)
        finally:
            sim._active_process = None

    # The process object is its own resume callback: the kernel stores it
    # directly in the waiter slot and calls it like any other callback.
    __call__ = _resume

    def _advance(self, next_target: Any, trigger: Event) -> None:
        """Finish a resume whose first ``send`` the kernel ran inline."""
        self._loop(trigger, next_target, True)

    def _died(self, exc: BaseException) -> None:
        """Record the generator's death (kernel inline-send escape hatch)."""
        self._target = None
        if isinstance(exc, Interrupt):
            # Generator let an interrupt escape: treat as failure.
            self.fail(SimulationError(f"process {self.name!r} died on unhandled {exc!r}"))
        else:
            self.fail(exc)

    def _loop(self, trigger: Event, next_target: Any, have_target: bool) -> None:
        """The resume loop: alternate generator steps with target handling.

        ``have_target`` skips the first generator step when the kernel
        already performed it (the inlined fast path in ``Simulator._run``).
        """
        sim = self.sim
        while True:
            if not have_target:
                try:
                    if self._interrupts:
                        next_target = self._throw(self._interrupts.pop(0))
                    elif trigger._state & ST_OK:
                        next_target = self._send(trigger._value)
                    else:
                        trigger._state |= ST_DEFUSED
                        next_target = self._throw(trigger._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except Interrupt as interrupt:
                    # Generator let an interrupt escape: treat as failure.
                    self._target = None
                    self.fail(SimulationError(f"process {self.name!r} died on unhandled {interrupt!r}"))
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    return
            have_target = False

            if not isinstance(next_target, Event):
                error = TypeError(
                    f"process {self.name!r} yielded {next_target!r}; processes must yield Event objects"
                )
                self._throw(error)
                continue
            if next_target.sim is not sim:
                error = SimulationError(f"process {self.name!r} yielded an event from another simulator")
                self._throw(error)
                continue

            if next_target._state & ST_PROCESSED:
                # Already fired: loop and deliver its outcome synchronously.
                trigger = next_target
                self._target = next_target
                continue
            next_target._add_callback(self)
            self._target = next_target
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"
