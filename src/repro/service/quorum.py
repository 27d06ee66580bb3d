"""The Marzullo quorum client: fan-out sync, then an O(1) anchor.

Follows the TrustedTime engine's two-phase design (SNIPPETS.md
Snippet 3): an expensive *sync* establishes an anchor — "at client
monotonic instant ``S`` the consensus trusted time was ``T``" — and the
hot ``now()`` path is then a pure delta addition ``T + (now − S)`` with
no message exchange at all, until the anchor's staleness deadline forces
the next sync.

A sync fans out to the configured quorum of Triad nodes. Each available
source contributes a confidence interval ``estimate ± (RTT/2 + margin)``
with the RTT drawn from the service's own seeded delay model (the
fan-out messages are not simulated individually — at millions of
requests the per-message events would drown the kernel; the sampled RTT
carries exactly the information a real client would extract from them).
Marzullo intersection then yields the consensus estimate, and sources
disjoint from the winning region are recorded as out-voted — under the
paper's F− attack that is the dragged-fast node being contained by its
honest peers. If fewer than a majority of the quorum agree, the sync
fails and the client serves nothing until the next attempt: a visible
availability hit rather than a silently poisoned timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ConfigurationError
from repro.hardened.chimers import Interval, majority
from repro.service.marzullo import intersect

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.core.node import TriadNode
    from repro.net.delays import DelayModel
    from repro.sim.kernel import Simulator


@dataclass
class QuorumStats:
    """Sync-path observability counters of one quorum client."""

    syncs: int = 0
    sync_failures: int = 0
    #: Successful syncs that were accepted in degraded mode (a majority
    #: of the *responding* sources only, with widened intervals).
    degraded_syncs: int = 0
    #: Total agreeing votes across successful syncs (mean = total/syncs).
    votes_total: int = 0
    #: Source was tainted/calibrating when polled: name -> count.
    unavailable: dict[str, int] = field(default_factory=dict)
    #: Source was discarded by Marzullo intersection: name -> count.
    outvoted: dict[str, int] = field(default_factory=dict)
    #: Circuit breaker opened on a source: name -> count.
    breaker_opens: dict[str, int] = field(default_factory=dict)
    #: Fan-outs that skipped a source behind an open breaker: name -> count.
    breaker_skips: dict[str, int] = field(default_factory=dict)

    @property
    def mean_votes(self) -> float:
        return self.votes_total / self.syncs if self.syncs else 0.0

    def to_dict(self) -> dict:
        return {
            "syncs": self.syncs,
            "sync_failures": self.sync_failures,
            "degraded_syncs": self.degraded_syncs,
            "mean_votes": round(self.mean_votes, 4),
            "unavailable": dict(sorted(self.unavailable.items())),
            "outvoted": dict(sorted(self.outvoted.items())),
            "breaker_opens": dict(sorted(self.breaker_opens.items())),
            "breaker_skips": dict(sorted(self.breaker_skips.items())),
        }


class QuorumClient:
    """Client-side time source: quorum syncs feeding a staleness-bounded anchor."""

    def __init__(
        self,
        sim: "Simulator",
        sources: Sequence["TriadNode"],
        rng: "np.random.Generator",
        delay_model: "DelayModel",
        staleness_ns: int,
        margin_ns: int = 0,
        degraded_margin_factor: float = 0.0,
        breaker_threshold: int = 0,
        breaker_cooldown_ns: int = 0,
    ) -> None:
        if not sources:
            raise ConfigurationError("quorum client needs at least one source node")
        if staleness_ns <= 0:
            raise ConfigurationError(f"staleness must be positive, got {staleness_ns}")
        if degraded_margin_factor != 0 and degraded_margin_factor < 1:
            raise ConfigurationError(
                f"degraded margin factor must be 0 or >= 1, got {degraded_margin_factor}"
            )
        if breaker_threshold > 0 and breaker_cooldown_ns <= 0:
            raise ConfigurationError("breaker needs a positive cooldown")
        self.sim = sim
        self.sources = list(sources)
        self.rng = rng
        self.delay_model = delay_model
        self.staleness_ns = staleness_ns
        self.margin_ns = margin_ns
        self.degraded_margin_factor = degraded_margin_factor
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_ns = breaker_cooldown_ns
        self.stats = QuorumStats()
        self._anchor_time_ns: Optional[int] = None
        self._anchor_estimate_ns: int = 0
        #: Whether the last anchor ``estimate()`` served came from a
        #: degraded-mode sync; read it right after a non-None estimate.
        self.anchor_degraded = False
        #: Consecutive unavailable polls per source (breaker trip counter).
        self._source_failures: dict[str, int] = {}
        #: Source name -> sim instant its open breaker allows a retry.
        self._breaker_open_until: dict[str, int] = {}

    @property
    def anchored(self) -> bool:
        """Whether the hot path currently has a valid anchor."""
        return (
            self._anchor_time_ns is not None
            and self.sim.now - self._anchor_time_ns < self.staleness_ns
        )

    def estimate(self) -> Optional[int]:
        """Client-visible trusted time now, or None while unavailable.

        The anchored path is two integer additions — the O(1) zero-alloc
        ``now()`` the TrustedTime design promises; only a stale (or
        absent) anchor pays for a quorum sync.
        """
        now = self.sim.now
        if self._anchor_time_ns is not None and now - self._anchor_time_ns < self.staleness_ns:
            return self._anchor_estimate_ns + (now - self._anchor_time_ns)
        return self._sync(now)

    def _sync(self, now: int) -> Optional[int]:
        intervals: list[Interval] = []
        for node in self.sources:
            name = node.name
            open_until = self._breaker_open_until.get(name)
            if open_until is not None:
                if now < open_until:
                    self.stats.breaker_skips[name] = (
                        self.stats.breaker_skips.get(name, 0) + 1
                    )
                    continue
                # Half-open: the cooldown elapsed, probe the source again.
                del self._breaker_open_until[name]
            if not node.available:
                self.stats.unavailable[name] = self.stats.unavailable.get(name, 0) + 1
                self._note_source_failure(name, now)
                continue
            self._source_failures.pop(name, None)
            source_estimate = node.clock.now_unchecked()
            # One-way delay sampled twice: request and response legs.
            rtt = int(self.delay_model.sample(self.rng)) + int(
                self.delay_model.sample(self.rng)
            )
            half_width = rtt // 2 + self.margin_ns
            intervals.append(
                Interval(source_estimate - half_width, source_estimate + half_width, name)
            )
        if not intervals:
            return self._fail_sync()
        consensus = intersect(intervals)
        degraded = False
        if consensus.votes < majority(len(self.sources)):
            # No majority of the configured fan-out agrees. If sources are
            # *dark* (fewer responders than the fan-out) and degraded mode
            # is on, fall back to a majority of the responders with every
            # interval widened — an explicit lower-confidence answer beats
            # refusing outright during a fault. Disagreement among a full
            # quorum is still refused: degradation must never hand an
            # outvoted (possibly poisoned) minority a second chance.
            if not (
                self.degraded_margin_factor > 0
                and len(intervals) < len(self.sources)
            ):
                return self._fail_sync()
            intervals = [self._widen(interval) for interval in intervals]
            consensus = intersect(intervals)
            if consensus.votes < majority(len(intervals)):
                return self._fail_sync()
            degraded = True
        for interval in intervals:
            if not consensus.overlaps(interval):
                name = interval.source
                self.stats.outvoted[name] = self.stats.outvoted.get(name, 0) + 1
        self.stats.syncs += 1
        if degraded:
            self.stats.degraded_syncs += 1
        self.stats.votes_total += consensus.votes
        self._anchor_time_ns = now
        self._anchor_estimate_ns = consensus.midpoint_ns
        self.anchor_degraded = degraded
        return self._anchor_estimate_ns

    def _fail_sync(self) -> None:
        self.stats.sync_failures += 1
        self._anchor_time_ns = None
        self.anchor_degraded = False
        return None

    def _widen(self, interval: Interval) -> Interval:
        """Scale an interval's half-width by the degraded margin factor."""
        center = (interval.lo_ns + interval.hi_ns) // 2
        half_width = int((interval.hi_ns - interval.lo_ns) // 2 * self.degraded_margin_factor)
        return Interval(center - half_width, center + half_width, interval.source)

    def _note_source_failure(self, name: str, now: int) -> None:
        """Count a dark poll; trip the source's breaker at the threshold."""
        if self.breaker_threshold <= 0:
            return
        failures = self._source_failures.get(name, 0) + 1
        if failures >= self.breaker_threshold:
            self._source_failures.pop(name, None)
            self._breaker_open_until[name] = now + self.breaker_cooldown_ns
            self.stats.breaker_opens[name] = self.stats.breaker_opens.get(name, 0) + 1
        else:
            self._source_failures[name] = failures
