"""Marzullo's algorithm: the one interval sweep behind every time agreement.

Standard clock synchronization (Marzullo & Owicki 1983; NTP's clock select)
treats each clock as an :class:`Interval` — a reading ``t ± e`` is
``[t − e, t + e]``, where ``e`` bounds its possible error. :func:`marzullo`
finds the region covered by the most intervals; the sources whose interval
overlaps that region are the **true-chimers**, and the region is where the
true time must lie if a majority of clocks is honest.

Two callers share this sweep:

* the hardened peer-untaint (:func:`majority_chimers`, §V): an
  F−-infected node's clock races ahead of every honest interval, so it
  stops being a true-chimer and its timestamps get ignored — instead of
  being adopted *because* they are largest, as Triad's policy does;
* the service's quorum client (through :func:`repro.service.marzullo.intersect`),
  which out-votes every source disjoint from the winning region.

The sweep puts a start edge at every ``lo_ns`` and an end edge at every
``hi_ns``, with starts ordered before ends at equal offsets, so touching
intervals ``[a, b]``/``[b, c]`` agree on the single point ``b``. Ties
between equally-voted regions resolve to the earliest region. O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Interval:
    """One source's claim: the true time lies within [lo_ns, hi_ns]."""

    lo_ns: int
    hi_ns: int
    source: str = ""

    def __post_init__(self) -> None:
        if self.hi_ns < self.lo_ns:
            raise ConfigurationError(
                f"interval from {self.source or 'source'} is inverted: "
                f"[{self.lo_ns}, {self.hi_ns}]"
            )


@dataclass(frozen=True)
class Agreement:
    """The region covered by the most intervals, and how many cover it."""

    lo_ns: int
    hi_ns: int
    votes: int

    @property
    def midpoint_ns(self) -> int:
        """Centre of the region — the consensus time a caller adopts."""
        return (self.lo_ns + self.hi_ns) // 2

    def overlaps(self, interval: Interval) -> bool:
        """Whether ``interval`` shares at least one instant with the region."""
        return interval.lo_ns <= self.hi_ns and interval.hi_ns >= self.lo_ns


def majority(total: int) -> int:
    """Votes required for agreement among ``total`` clocks or sources."""
    if total < 1:
        raise ConfigurationError(f"quorum must be at least 1, got {total}")
    return total // 2 + 1


def marzullo(intervals: Sequence[Interval]) -> Agreement:
    """The region contained in the most intervals (Marzullo's algorithm).

    With disjoint inputs the best region is the earliest interval with one
    vote; callers decide whether that clears their threshold (see
    :func:`majority`). Raises on an empty input — zero sources have no
    agreement at all, not a zero-vote one.
    """
    if not intervals:
        raise ConfigurationError("cannot intersect zero intervals")
    # (offset, kind): kind 0 = start, 1 = end, so starts sort first.
    events: list[tuple[int, int]] = []
    for interval in intervals:
        events.append((interval.lo_ns, 0))
        events.append((interval.hi_ns, 1))
    events.sort()

    votes = count = lo_ns = hi_ns = 0
    for index, (offset, kind) in enumerate(events):
        if kind == 0:
            count += 1
            if count > votes:
                # The region runs to the next endpoint (there is always
                # one: at least this interval's own end).
                votes, lo_ns, hi_ns = count, offset, events[index + 1][0]
        else:
            count -= 1
    return Agreement(lo_ns=lo_ns, hi_ns=hi_ns, votes=votes)


def majority_chimers(
    intervals: Sequence[Interval], total_clocks: int
) -> Optional[Agreement]:
    """Marzullo restricted to an honest-majority assumption.

    Returns the agreement only if it is supported by a strict majority of
    ``total_clocks`` (the cluster size, not just the intervals that
    happened to arrive); otherwise ``None`` — the caller cannot tell honest
    from compromised clocks and must fall back to the Time Authority.
    """
    needed = majority(total_clocks)
    if not intervals:
        return None
    agreement = marzullo(intervals)
    return agreement if agreement.votes >= needed else None
