"""Triad node states and the recorded state timeline.

A node is in exactly one of four states (the paper's Fig. 3b timing
diagram):

* ``FULL_CALIB`` — calibrating both clock speed (TSC rate) and reference
  time with the Time Authority. Happens at startup and whenever the INC
  monitor detects TSC tampering.
* ``REF_CALIB`` — re-anchoring the absolute timestamp with the TA because
  no peer could untaint the node.
* ``TAINTED`` — an AEX severed time continuity; the timestamp cannot be
  served until refreshed by a peer or the TA.
* ``OK`` — trusted timestamp available to client applications.

Availability (the paper's §IV-A2 metric) is the fraction of time in ``OK``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class NodeState(enum.Enum):
    """Protocol state of a Triad node."""

    FULL_CALIB = "FullCalib"
    REF_CALIB = "RefCalib"
    TAINTED = "Tainted"
    OK = "OK"

    @property
    def available(self) -> bool:
        """Whether the node can serve timestamps in this state."""
        return self is NodeState.OK


@dataclass(frozen=True)
class StateChange:
    """One transition in a node's state history."""

    time_ns: int
    state: NodeState


class StateTimeline:
    """Append-only record of a node's state transitions.

    Feeds three paper artefacts: the Fig. 3b timing diagram, the
    availability percentages of §IV-A2, and assertions in tests (e.g.
    "exactly one FullCalib stay in a fault-free run").
    """

    def __init__(self, start_time_ns: int, initial_state: NodeState) -> None:
        self._changes: list[StateChange] = [StateChange(start_time_ns, initial_state)]

    @property
    def current(self) -> NodeState:
        """The most recent state."""
        return self._changes[-1].state

    @property
    def changes(self) -> list[StateChange]:
        """All transitions, oldest first (copy; safe to mutate)."""
        return list(self._changes)

    def record(self, time_ns: int, state: NodeState) -> None:
        """Append a transition. No-op if the state did not change."""
        last = self._changes[-1]
        if time_ns < last.time_ns:
            raise ValueError(f"state change at {time_ns} precedes last change at {last.time_ns}")
        if state is last.state:
            return
        self._changes.append(StateChange(time_ns, state))

    def state_at(self, time_ns: int) -> NodeState:
        """The state in effect at ``time_ns`` (before the first change: initial)."""
        state = self._changes[0].state
        for change in self._changes:
            if change.time_ns > time_ns:
                break
            state = change.state
        return state

    def first_ok(self, from_ns: int) -> Optional[int]:
        """Earliest instant >= ``from_ns`` at which the timeline shows ``OK``."""
        if self.state_at(from_ns) is NodeState.OK:
            return from_ns
        for change in self._changes:
            if change.time_ns >= from_ns and change.state is NodeState.OK:
                return change.time_ns
        return None

    def recovered(self, heal_ns: int, deadline_ns: int) -> bool:
        """The recovery rule: ``OK`` at some instant in ``[heal, heal + deadline]``.

        The one judgement of a fault plan's recovery contract: the
        oracle's ``recovery`` invariant and the recovery report both call it.
        """
        ok_ns = self.first_ok(heal_ns)
        return ok_ns is not None and ok_ns <= heal_ns + deadline_ns

    def time_in_state(self, state: NodeState, until_ns: Optional[int] = None) -> int:
        """Total nanoseconds spent in ``state`` up to ``until_ns``."""
        if until_ns is None:
            until_ns = self._changes[-1].time_ns
        total = 0
        for change, nxt in zip(self._changes, self._changes[1:]):
            if change.state is state:
                total += max(min(nxt.time_ns, until_ns) - change.time_ns, 0)
        last = self._changes[-1]
        if last.state is state and until_ns > last.time_ns:
            total += until_ns - last.time_ns
        return total

    def availability(self, until_ns: int) -> float:
        """Fraction of [start, until] spent able to serve timestamps."""
        start = self._changes[0].time_ns
        span = until_ns - start
        if span <= 0:
            raise ValueError("availability needs a positive observation span")
        return self.time_in_state(NodeState.OK, until_ns) / span

    def count_stays(self, state: NodeState) -> int:
        """How many separate stays in ``state`` the timeline contains."""
        return sum(1 for change in self._changes if change.state is state)

    def segments(self, until_ns: Optional[int] = None) -> list[tuple[int, int, NodeState]]:
        """(start, end, state) segments — the Fig. 3b rendering format."""
        result = []
        for change, nxt in zip(self._changes, self._changes[1:]):
            result.append((change.time_ns, nxt.time_ns, change.state))
        last = self._changes[-1]
        end = until_ns if until_ns is not None else last.time_ns
        if end > last.time_ns:
            result.append((last.time_ns, end, last.state))
        return result
