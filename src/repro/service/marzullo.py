"""The quorum client's entry point into the one Marzullo sweep.

A quorum client asks several Triad nodes for the time and gets back one
confidence interval per source; a source disjoint from the best overlap
(say, an F−-fast node seconds ahead of its honest peers) is *out-voted*
rather than averaged in. The sweep, the :class:`~repro.hardened.chimers.Interval`
and :class:`~repro.hardened.chimers.Agreement` types and the majority rule
all live in :mod:`repro.hardened.chimers`, shared with the hardened
peer-untaint.

:func:`intersect` stays a function of its own, not an alias of
:func:`~repro.hardened.chimers.marzullo`, so the service's sweeps are a
call site distinct from the hardened ones: per-layer tracing wraps this
name alone and counts only service syncs here.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardened.chimers import Agreement, Interval, marzullo


def intersect(intervals: Sequence[Interval]) -> Agreement:
    """The region contained in the most source intervals."""
    return marzullo(intervals)
